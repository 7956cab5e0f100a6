#include "logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace g10 {

namespace {
LogLevel g_level = LogLevel::Warn;

void
vreport(const char* tag, const char* fmt, va_list args)
{
    std::fprintf(stderr, "[g10:%s] ", tag);
    std::vfprintf(stderr, fmt, args);
    std::fprintf(stderr, "\n");
}
}  // namespace

void
setLogLevel(LogLevel level)
{
    g_level = level;
}

bool
logLevelFromName(const char* name, LogLevel* out)
{
    std::string s;
    for (const char* p = name; *p; ++p)
        s.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (s == "silent")
        *out = LogLevel::Silent;
    else if (s == "warn")
        *out = LogLevel::Warn;
    else if (s == "info")
        *out = LogLevel::Info;
    else if (s == "debug")
        *out = LogLevel::Debug;
    else
        return false;
    return true;
}

void
panic(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("PANIC", fmt, args);
    va_end(args);
    std::abort();
}

void
fatal(const char* fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("FATAL", fmt, args);
    va_end(args);
    std::exit(1);
}

void
warn(const char* fmt, ...)
{
    if (g_level < LogLevel::Warn)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char* fmt, ...)
{
    if (g_level < LogLevel::Info)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
debug(const char* fmt, ...)
{
    if (g_level < LogLevel::Debug)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("debug", fmt, args);
    va_end(args);
}

}  // namespace g10
