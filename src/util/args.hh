/**
 * @file
 * Small command-line argument parser for the tools: one positional
 * command followed by `--flag value` and `--switch` options, with typed
 * accessors and strict unknown-flag rejection (with nearest-valid-flag
 * suggestions for typos). Every value of a repeated flag is kept;
 * getAll() reads them all, and every other accessor refuses a flag
 * given more than once. All parse errors throw UserError.
 */

#ifndef RSR_UTIL_ARGS_HH
#define RSR_UTIL_ARGS_HH

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rsr
{

/** Parsed command line. */
class ArgParser
{
  public:
    /**
     * Parse `prog [command] [--flag [value]]...`. A token after a flag
     * is treated as its value unless it starts with `--`.
     */
    ArgParser(int argc, const char *const *argv);

    /** The positional command ("" if none). */
    const std::string &command() const { return command_; }

    /**
     * Was @p flag given (with or without a value)? This and the typed
     * accessors below throw UserError for a flag given twice.
     */
    bool has(const std::string &flag) const;

    /** String value of @p flag, or @p fallback. */
    std::string get(const std::string &flag,
                    const std::string &fallback = "") const;

    /** Every value of @p flag, in command-line order: the one accessor
     *  that accepts a repeated flag. */
    std::vector<std::string> getAll(const std::string &flag) const;

    /**
     * Unsigned integer value of @p flag (decimal, 0x hex or 0 octal), or
     * @p fallback. Rejects a sign (strtoull would silently wrap "-5"),
     * trailing junk, and values above @p max instead of truncating them.
     */
    std::uint64_t
    getU64(const std::string &flag, std::uint64_t fallback,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const;

    /**
     * Strictly positive decimal integer value of @p flag, or
     * @p fallback. Rejects 0, signs, anything with non-digit characters,
     * and values above @p max.
     */
    std::uint64_t getPositiveU64(
        const std::string &flag, std::uint64_t fallback,
        std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const;

    /** Floating-point value of @p flag, or @p fallback. */
    double getDouble(const std::string &flag, double fallback) const;

    /**
     * Flags present on the command line that are not in @p allowed
     * (for strict validation / typo detection).
     */
    std::vector<std::string>
    unknownFlags(const std::set<std::string> &allowed) const;

    /**
     * Throw UserError if any flag is not in @p allowed, naming the
     * offending flag and — when one is close enough — the nearest valid
     * flag ("did you mean --cluster-size?").
     */
    void requireKnown(const std::set<std::string> &allowed) const;

  private:
    /** The value of @p flag, or nullptr if absent; throws if repeated. */
    const std::string *single(const std::string &flag) const;

    std::string command_;
    /** flag -> its values ("" for a switch), in command-line order. */
    std::map<std::string, std::vector<std::string>> flags;
};

/**
 * The element of @p candidates closest to @p name by edit distance, or ""
 * if none is within a useful distance (≤ 1/2 of the name's length, max 3).
 */
std::string nearestName(const std::string &name,
                        const std::set<std::string> &candidates);

} // namespace rsr

#endif // RSR_UTIL_ARGS_HH
