/**
 * @file
 * Cooperative per-job watchdog deadline. The campaign runner arms one
 * Deadline per job; the sampled-simulation loop polls it at cluster
 * boundaries (and periodically inside long skips) and throws TimeoutError
 * when it expires, so a wedged or oversized job fails cleanly instead of
 * stalling the whole campaign. The serve daemon additionally derives
 * socket-I/O timeouts from remainingSeconds(), so a hung or slow-loris
 * peer cannot wedge a worker past its request deadline.
 */

#ifndef RSR_UTIL_DEADLINE_HH
#define RSR_UTIL_DEADLINE_HH

#include <chrono>
#include <cstdint>
#include <limits>

namespace rsr
{

/** A wall-clock deadline, armed at construction. */
class Deadline
{
  public:
    /**
     * The longest representable limited deadline, in seconds (~31
     * years). Larger requests are clamped here rather than overflowing
     * the steady_clock duration cast — a caller passing 1e300 gets a
     * deadline that behaves exactly like "never expires in practice"
     * instead of undefined behaviour.
     */
    static constexpr double maxSeconds = 1.0e9;

    /** Instruction loops poll expired() when (i & pollMask) == 0:
     *  cheap enough to check inside long functional passes. */
    static constexpr std::uint64_t pollMask = (1u << 16) - 1;

    /** A deadline @p seconds from now; <= 0 means "never expires". */
    explicit Deadline(double seconds) : limited_(seconds > 0.0)
    {
        if (limited_) {
            if (seconds > maxSeconds)
                seconds = maxSeconds;
            expiry_ = std::chrono::steady_clock::now() +
                      std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(seconds));
        }
    }

    /** Was this constructed with the "never expires" sentinel (<= 0)? */
    bool unlimited() const { return !limited_; }

    bool
    expired() const
    {
        return limited_ && std::chrono::steady_clock::now() >= expiry_;
    }

    /**
     * Seconds until expiry, clamped to >= 0 once expired; +infinity for
     * an unlimited deadline.
     */
    double
    remainingSeconds() const
    {
        if (!limited_)
            return std::numeric_limits<double>::infinity();
        const auto now = std::chrono::steady_clock::now();
        if (now >= expiry_)
            return 0.0;
        return std::chrono::duration<double>(expiry_ - now).count();
    }

    /**
     * Timeout for poll(2)-style APIs: milliseconds until expiry, rounded
     * up so a positive remainder never truncates to a busy-spin 0, and
     * clamped to [0, cap_ms]. An unlimited deadline returns @p cap_ms.
     */
    int
    pollTimeoutMs(int cap_ms) const
    {
        if (!limited_)
            return cap_ms;
        const double ms = remainingSeconds() * 1e3;
        if (ms <= 0.0)
            return 0;
        if (ms >= static_cast<double>(cap_ms))
            return cap_ms;
        const int rounded = static_cast<int>(ms) + 1;
        return rounded < cap_ms ? rounded : cap_ms;
    }

  private:
    bool limited_;
    std::chrono::steady_clock::time_point expiry_;
};

} // namespace rsr

#endif // RSR_UTIL_DEADLINE_HH
