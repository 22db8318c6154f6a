/**
 * @file
 * The command-line front end of the tools and benches: ArgParser reads
 * one positional command followed by `--flag value` and `--switch`
 * options, with typed accessors. Every value of a repeated flag is
 * kept; getAll() reads them all, and every other accessor refuses a
 * flag given more than once. runProgram() runs a program's command
 * table. All parse errors throw UserError.
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

/** The non-empty items of the comma-separated @p csv, in order. */
std::vector<std::string> splitList(const std::string &csv);

/** A flag a command reads, with its value's placeholder in help ("" for
 *  a switch). */
struct Flag
{
    std::string name;
    std::string value;
};

using Flags = std::vector<Flag>;

Flags operator+(Flags a, const Flags &b);

/** A command, declared once: help and flag checking both read it. */
struct Command
{
    std::string name;
    std::string summary;
    /** Exactly the flags run() reads; any other is refused. */
    Flags flags;
    int (*run)(const ArgParser &);
    /** A second name for the command ("" for none). */
    std::string alias = "";
};

/** A program. With one command it is that command, and takes no
 *  command word; help prints the notes after the commands. */
struct Program
{
    std::string name;
    std::vector<Command> commands;
    std::string notes;
};

/** @p program's help, rendered from its command table. */
std::string helpText(const Program &program);

/** Throw UserError for a flag in @p args that @p cmd does not declare:
 *  "<cmd> does not take --f (did you mean --g?); it applies to A and B". */
void requireDeclaredFlags(const Program &program, const Command &cmd,
                          const ArgParser &args);

/**
 * Run @p program on argv and return the command's status. `--help`
 * anywhere, or no command word given to a multi-command program, prints
 * help and returns 0; an unknown command prints help and returns
 * @p error_status. A single-command program refuses a positional. An
 * error prints `fatal [<kind>]: <message>` (`fatal: <message>` for a
 * non-SimError) and returns @p error_status.
 */
int runProgram(const Program &program, int argc, const char *const *argv,
               int error_status = 1);

} // namespace rsr

#endif // RSR_UTIL_ARGS_HH
