/**
 * @file
 * Error-reporting helpers.
 *
 * Follows the gem5 convention of distinguishing user errors from
 * simulator bugs:
 *  - fatal():  the simulation cannot continue because of a condition
 *              that is the caller's fault (bad configuration, invalid
 *              arguments).  Throws FatalError.
 *  - panic():  something happened that should never happen regardless
 *              of input (an internal invariant was violated).  Throws
 *              PanicError.
 *
 * Errors are thrown (rather than calling std::abort) so that unit
 * tests can assert on them and library users can recover.
 */

#ifndef GPUMP_SIM_LOGGING_HH
#define GPUMP_SIM_LOGGING_HH

#include <stdexcept>
#include <string>

namespace gpump {
namespace sim {

/** Raised by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Raised by fatal(): the input or configuration is unusable. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort the simulation: user/configuration error.  Throws FatalError. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Abort the simulation: internal bug.  Throws PanicError. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** panic() unless @p cond holds.  The message should state the invariant. */
#define GPUMP_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::gpump::sim::panic(__VA_ARGS__);                               \
    } while (0)

} // namespace sim
} // namespace gpump

#endif // GPUMP_SIM_LOGGING_HH
