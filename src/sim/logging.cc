#include "sim/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

namespace gpump {
namespace sim {

namespace {

std::string
vformat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

} // namespace

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string result = vformat(fmt, args);
    va_end(args);
    return result;
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw FatalError(msg);
}

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw PanicError(msg);
}

} // namespace sim
} // namespace gpump
