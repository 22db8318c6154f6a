/**
 * @file
 * The structured error taxonomy for the simulator libraries. Library code
 * under src/ never exits the process: every error condition throws a
 * SimError subclass so that callers — in particular the campaign runner —
 * can record a failure and carry on with independent work.
 *
 * Taxonomy:
 *   UserError         — bad configuration or arguments; not retryable.
 *   CorruptInputError — a malformed/truncated/bit-flipped input artifact
 *                       (trace file, live-point library, manifest).
 *   InternalError     — a violated simulator invariant (a bug); carries
 *                       the throwing file:line.
 *   IoError           — an environmental I/O failure (open/read/write/
 *                       rename); retryable.
 *   TimeoutError      — a per-job watchdog deadline expired; retryable.
 */

#ifndef RSR_UTIL_ERROR_HH
#define RSR_UTIL_ERROR_HH

#include <chrono>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace rsr
{

/** Coarse classification of a SimError, stable across subclasses. */
enum class ErrorKind
{
    UserError,
    CorruptInput,
    InternalInvariant,
    Io,
    Timeout,
};

/** Short stable name for manifests and log lines. */
const char *errorKindName(ErrorKind kind);

/** Base of every recoverable simulator error. */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, const std::string &msg)
        : std::runtime_error(msg), kind_(kind)
    {}

    ErrorKind kind() const { return kind_; }

    /** Transient (environmental) failures are worth retrying. */
    bool
    retryable() const
    {
        return kind_ == ErrorKind::Io || kind_ == ErrorKind::Timeout;
    }

  private:
    ErrorKind kind_;
};

/**
 * Run @p attempt, retrying transient failures. When it throws a
 * retryable() SimError, fewer than @p max_retries retries have run and
 * @p before_retry() returns true, retry k (from 0) runs it again after
 * sleeping `backoff_ms << k`. Every other error propagates. Returns what
 * @p attempt returns.
 */
template <typename BeforeRetry, typename Attempt>
auto
retryTransient(unsigned max_retries, unsigned backoff_ms,
               BeforeRetry &&before_retry, Attempt &&attempt)
{
    for (unsigned n = 0;; ++n) {
        try {
            return attempt();
        } catch (const SimError &e) {
            if (!e.retryable() || n >= max_retries || !before_retry())
                throw;
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::uint64_t{backoff_ms} << n));
        }
    }
}

/** Bad configuration/arguments supplied by the user. */
class UserError : public SimError
{
  public:
    explicit UserError(const std::string &msg)
        : SimError(ErrorKind::UserError, msg)
    {}
};

/** A malformed, truncated, or corrupted input artifact. */
class CorruptInputError : public SimError
{
  public:
    explicit CorruptInputError(const std::string &msg)
        : SimError(ErrorKind::CorruptInput, msg)
    {}
};

/** A violated internal invariant — a simulator bug. */
class InternalError : public SimError
{
  public:
    InternalError(const std::string &msg, const char *file, int line)
        : SimError(ErrorKind::InternalInvariant,
                   msg + " (" + file + ":" + std::to_string(line) + ")")
    {}
};

/** An environmental I/O failure; retryable. */
class IoError : public SimError
{
  public:
    explicit IoError(const std::string &msg)
        : SimError(ErrorKind::Io, msg)
    {}
};

/** A watchdog deadline expired; retryable. */
class TimeoutError : public SimError
{
  public:
    explicit TimeoutError(const std::string &msg)
        : SimError(ErrorKind::Timeout, msg)
    {}
};

namespace detail
{

/** Stream-compose a message from variadic arguments. */
template <typename... Args>
std::string
composeMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace rsr

/** Throw a UserError composed from the arguments. */
#define rsr_throw_user(...)                                                  \
    throw ::rsr::UserError(::rsr::detail::composeMessage(__VA_ARGS__))

/** Throw a CorruptInputError composed from the arguments. */
#define rsr_throw_corrupt(...)                                               \
    throw ::rsr::CorruptInputError(                                          \
        ::rsr::detail::composeMessage(__VA_ARGS__))

/** Throw an InternalError tagged with the throwing file:line. */
#define rsr_throw_internal(...)                                              \
    throw ::rsr::InternalError(                                              \
        ::rsr::detail::composeMessage(__VA_ARGS__), __FILE__, __LINE__)

/** Throw an IoError composed from the arguments. */
#define rsr_throw_io(...)                                                    \
    throw ::rsr::IoError(::rsr::detail::composeMessage(__VA_ARGS__))

#endif // RSR_UTIL_ERROR_HH
