/**
 * @file
 * Error-reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic() is for simulator bugs (conditions that should never happen
 * regardless of user input); fatal() is for user errors (bad
 * configuration); warn() is advisory.
 */

#ifndef RMSSD_SIM_LOG_H
#define RMSSD_SIM_LOG_H

#include <cstdarg>
#include <string>

namespace rmssd {

/** Abort with a message: an internal simulator invariant was violated. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit with a message: the user supplied an impossible configuration. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning to stderr; simulation continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace rmssd

/**
 * Assert-like macro that survives NDEBUG builds. Use for invariants
 * whose violation means the simulator itself is broken.
 */
#define RMSSD_ASSERT(cond, msg)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::rmssd::panic("assertion failed: %s (%s at %s:%d)", #cond,   \
                           msg, __FILE__, __LINE__);                      \
        }                                                                 \
    } while (0)

#endif // RMSSD_SIM_LOG_H
