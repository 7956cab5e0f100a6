/**
 * @file
 * Status/error reporting in the gem5 tradition.
 *
 * - panic():  an internal invariant was violated -- a G10 bug. Aborts.
 * - fatal():  the simulation cannot continue because of a user/config
 *             error. Exits with status 1.
 * - warn():   something is modeled approximately; results may be affected.
 * - inform(): progress/status output.
 *
 * All functions accept printf-style formatting.
 */

#ifndef G10_COMMON_LOGGING_H
#define G10_COMMON_LOGGING_H

#include <cstdarg>

namespace g10 {

/** Verbosity filter for inform(); warnings and errors always print. */
enum class LogLevel { Silent = 0, Warn = 1, Info = 2, Debug = 3 };

/** Set the global log level (default: Warn, so benches stay quiet). */
void setLogLevel(LogLevel level);

/**
 * Parse a log-level name ("silent", "warn", "info", "debug",
 * case-insensitive) — the `--log-level` CLI surface. Returns false on
 * unknown names.
 */
bool logLevelFromName(const char* name, LogLevel* out);

/** Report an internal error (a bug in G10) and abort. */
[[noreturn]] void panic(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn about an approximation or suspicious condition. */
void warn(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Informational status message (shown at LogLevel::Info and above). */
void inform(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Debug-level message (shown at LogLevel::Debug). */
void debug(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace g10

#endif  // G10_COMMON_LOGGING_H
