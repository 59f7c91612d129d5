/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention of distinguishing user errors from
 * simulator bugs:
 *  - fatal():  the simulation cannot continue because of a condition
 *              that is the caller's fault (bad configuration, invalid
 *              arguments).  Throws FatalError.
 *  - panic():  something happened that should never happen regardless
 *              of input (an internal invariant was violated).  Throws
 *              PanicError.
 *  - warn()/inform(): status messages that never stop the simulation.
 *
 * Errors are thrown (rather than calling std::abort) so that unit
 * tests can assert on them and library users can recover.
 */

#ifndef GPUMP_SIM_LOGGING_HH
#define GPUMP_SIM_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <mutex>
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

/** Verbosity levels, in increasing order of chattiness. */
enum class LogLevel
{
    Silent = 0,
    Warn = 1,
    Inform = 2,
    Debug = 3,
    Trace = 4,
};

/**
 * printf-style formatting into a std::string.
 *
 * @param fmt printf format string.
 * @return the formatted string.
 */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Process-wide logger with a verbosity threshold.
 *
 * The logger is the one piece of state shared by every simulation in
 * a process.  A program that runs independent Systems on several
 * threads shares it between them, so it is thread-safe: the level is
 * atomic and emission is serialized under a mutex so lines from
 * different runs never interleave.  (harness::Runner runs one System
 * at a time per process; its parallel batches use forked workers.)
 * The interesting output still goes through the stats package, not
 * the log.
 */
class Logger
{
  public:
    /** The process-wide logger instance. */
    static Logger &global();

    void setLevel(LogLevel level)
    {
        level_.store(level, std::memory_order_relaxed);
    }
    LogLevel level() const
    {
        return level_.load(std::memory_order_relaxed);
    }

    /** True when messages at @p level would be emitted. */
    bool enabled(LogLevel level) const { return level <= this->level(); }

    /** Emit one log line (with level prefix) to stderr. */
    void emit(LogLevel level, const std::string &msg);

  private:
    std::atomic<LogLevel> level_{LogLevel::Warn};
    std::mutex emitMutex_;
};

/** Report a non-fatal suspicious condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Verbose debugging output, off by default. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

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
