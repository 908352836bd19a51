/**
 * @file
 * Logging and error-reporting helpers in the spirit of gem5's
 * base/logging.hh: panic() for simulator bugs, fatal() for user error,
 * warn()/inform() for status messages.
 */

#ifndef CWSP_SIM_LOGGING_HH
#define CWSP_SIM_LOGGING_HH

#include <cstddef>
#include <sstream>
#include <string>

namespace cwsp {

/** Verbosity levels for status messages. */
enum class LogLevel { Silent, Warn, Inform, Debug };

/** Global log level; messages below it are suppressed. */
LogLevel logLevel();

/** Set the global log level. */
void setLogLevel(LogLevel level);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Fold a mixed argument pack into one string. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Abort the simulation because of an internal invariant violation
 * (a simulator bug, never the user's fault).
 */
#define cwsp_panic(...) \
    ::cwsp::detail::panicImpl(__FILE__, __LINE__, \
                              ::cwsp::detail::format(__VA_ARGS__))

/**
 * Terminate the simulation because of a user-level error such as an
 * invalid configuration.
 */
#define cwsp_fatal(...) \
    ::cwsp::detail::fatalImpl(__FILE__, __LINE__, \
                              ::cwsp::detail::format(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define cwsp_warn(...) \
    ::cwsp::detail::warnImpl(::cwsp::detail::format(__VA_ARGS__))

/** Report normal operating status. */
#define cwsp_inform(...) \
    ::cwsp::detail::informImpl(::cwsp::detail::format(__VA_ARGS__))

/**
 * Cache budget in MiB from environment variable @p var: 256 when it
 * is unset or empty, its value when that is a positive decimal
 * integer, and otherwise 256 with a warning naming @p var (issued
 * once per variable per process).
 */
std::size_t envCacheMb(const char *var);

/** Assert an internal invariant; compiled in all build types. */
#define cwsp_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::cwsp::detail::panicImpl(__FILE__, __LINE__, \
                std::string("assertion failed: " #cond " ") + \
                ::cwsp::detail::format(__VA_ARGS__)); \
        } \
    } while (0)

} // namespace cwsp

#endif // CWSP_SIM_LOGGING_HH
