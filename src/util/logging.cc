/**
 * @file
 * Implementation of the logging primitives.
 *
 * Messages are formatted into a stack buffer and written to stderr
 * with one fwrite, so concurrent loggers (replay shard workers,
 * pool threads) never interleave mid-line. inform()/warn() honor the
 * EDB_LOG_LEVEL environment filter; fatal/panic always print.
 */

#include "util/logging.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace edb {

namespace {

/** Message severities, least severe first. */
enum class Level { Info = 0, Warn = 1, Error = 2 };

/**
 * Least severe level to print, from EDB_LOG_LEVEL (info|warn|error;
 * anything else means info). Re-read per message: the env var is the
 * only configuration channel and tests flip it at runtime.
 */
Level
threshold()
{
    const char *env = std::getenv("EDB_LOG_LEVEL");
    if (env == nullptr)
        return Level::Info;
    if (std::strcmp(env, "warn") == 0)
        return Level::Warn;
    if (std::strcmp(env, "error") == 0)
        return Level::Error;
    return Level::Info;
}

/**
 * Format "tag: [file:line: ]message\n" into one buffer and write it
 * with a single fwrite. Overlong messages are truncated (with a
 * trailing "..."), never split across writes.
 */
void
emit(const char *tag, const char *file, int line, const char *fmt,
     va_list args)
{
    char buf[2048];
    std::size_t n;
    if (file != nullptr) {
        n = (std::size_t)std::snprintf(buf, sizeof(buf), "%s: %s:%d: ",
                                       tag, file, line);
    } else {
        n = (std::size_t)std::snprintf(buf, sizeof(buf), "%s: ", tag);
    }
    if (n >= sizeof(buf))
        n = sizeof(buf) - 1;
    const int m =
        std::vsnprintf(buf + n, sizeof(buf) - n - 1, fmt, args);
    if (m > 0) {
        n += (std::size_t)m;
        if (n > sizeof(buf) - 2) { // truncated: mark it
            n = sizeof(buf) - 2;
            std::memcpy(buf + n - 3, "...", 3);
        }
    }
    buf[n++] = '\n';
    std::fwrite(buf, 1, n, stderr);
    std::fflush(stderr);
}

} // namespace

void
inform(const char *fmt, ...)
{
    if (threshold() > Level::Info)
        return;
    va_list args;
    va_start(args, fmt);
    emit("info", nullptr, 0, fmt, args);
    va_end(args);
}

void
warn(const char *fmt, ...)
{
    if (threshold() > Level::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    emit("warn", nullptr, 0, fmt, args);
    va_end(args);
}

void
fatalImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("fatal", file, line, fmt, args);
    va_end(args);
    std::exit(1);
}

void
panicImpl(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    emit("panic", file, line, fmt, args);
    va_end(args);
    std::abort();
}

} // namespace edb
