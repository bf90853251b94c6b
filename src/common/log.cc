#include "common/log.h"

#include <cstdio>

namespace rsafe {

void
panic(const std::string& msg)
{
    throw PanicError("panic: " + msg);
}

void
fatal(const std::string& msg)
{
    throw FatalError("fatal: " + msg);
}

void
warn(const std::string& msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

}  // namespace rsafe
