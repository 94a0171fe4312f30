#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

#include "common/exitcodes.hh"

namespace nvmr
{

namespace
{
bool quietFlag = false;
}

void
setQuiet(bool quiet)
{
    quietFlag = quiet;
}

bool
isQuiet()
{
    return quietFlag;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

void
fatalImpl(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    // fatal() may run on a src/par worker. std::exit would run the
    // static destructors there, and the worker pool's destructor
    // joins its threads -- the calling one included, which aborts.
    // Flush what the tool already printed and leave without them.
    std::fflush(nullptr);
    std::_Exit(kExitUsage);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quietFlag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace nvmr
