/**
 * @file
 * gem5-style status/error reporting: panic() for simulator bugs, fatal()
 * for user errors, warn()/inform() for status messages.
 */

#ifndef OVERLAYSIM_COMMON_LOGGING_HH
#define OVERLAYSIM_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace ovl
{

namespace logging_detail
{

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

/** Minimal printf-style formatter returning a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace logging_detail

} // namespace ovl

/**
 * Something happened that should never happen regardless of user input:
 * an overlaysim bug. Aborts.
 */
#define ovl_panic(...) \
    ::ovl::logging_detail::panicImpl(__FILE__, __LINE__, \
        ::ovl::logging_detail::formatString(__VA_ARGS__))

/**
 * The simulation cannot continue due to a user-caused condition
 * (bad configuration, invalid arguments). Exits with status 1.
 */
#define ovl_fatal(...) \
    ::ovl::logging_detail::fatalImpl(__FILE__, __LINE__, \
        ::ovl::logging_detail::formatString(__VA_ARGS__))

/** Non-fatal warning about questionable behaviour. */
#define ovl_warn(...) \
    ::ovl::logging_detail::warnImpl( \
        ::ovl::logging_detail::formatString(__VA_ARGS__))

/** Informational status message. */
#define ovl_inform(...) \
    ::ovl::logging_detail::informImpl( \
        ::ovl::logging_detail::formatString(__VA_ARGS__))

/** Invariant check that is kept in release builds. */
#define ovl_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ovl_panic("assertion failed: %s", #cond); \
        } \
    } while (0)

#endif // OVERLAYSIM_COMMON_LOGGING_HH
