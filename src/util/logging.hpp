/**
 * @file
 * Logging and error-reporting primitives.
 *
 * Follows the gem5 convention: inform() for status, warn() for suspicious
 * but survivable conditions, fatal() for user errors (clean exit), and
 * panic() for internal invariant violations (abort).
 */

#ifndef QPLACER_UTIL_LOGGING_HPP
#define QPLACER_UTIL_LOGGING_HPP

#include <sstream>
#include <string>

namespace qplacer {

/** Verbosity levels for the global logger. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/**
 * Minimal global logger. emit() serializes concurrent callers behind a
 * mutex so batch-session jobs running on worker threads can log safely;
 * setLevel() is still driver-thread-only (configure before spawning
 * work). Hot loops should stay log-free regardless -- the lock makes
 * concurrent logging safe, not cheap.
 */
class Logger
{
  public:
    /** Access the process-wide logger instance. */
    static Logger &instance();

    /** Set the verbosity threshold. */
    void setLevel(LogLevel level) { level_ = level; }

    /** Current verbosity threshold. */
    LogLevel level() const { return level_; }

    /** Emit a message at the given level (filtered by threshold). */
    void emit(LogLevel level, const std::string &msg);

  private:
    Logger();

    LogLevel level_;
};

/** Status message for the user; no connotation of misbehaviour. */
void inform(const std::string &msg);

/** Something may be wrong but execution continues. */
void warn(const std::string &msg);

/** Debug-level trace message. */
void debug(const std::string &msg);

/**
 * Unrecoverable *user* error (bad configuration, invalid arguments).
 * Throws std::runtime_error so tests and callers can observe it.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Unrecoverable *internal* error: an invariant the library itself
 * guarantees has been violated. Throws std::logic_error.
 */
[[noreturn]] void panic(const std::string &msg);

/** printf-free formatting helper: str("a=", a, " b=", b). */
template <typename... Args>
std::string
str(Args &&...args)
{
    std::ostringstream oss;
    // The cast keeps str() with no arguments (a bare `oss`) warning-free.
    (void)(oss << ... << args);
    return oss.str();
}

} // namespace qplacer

#endif // QPLACER_UTIL_LOGGING_HPP
