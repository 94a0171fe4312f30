#include "campaign/sig.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>

#include "common/exitcodes.hh"

namespace nvmr::campaign
{

namespace
{

// Written by the handler (on whichever thread takes the signal) and
// polled by worker and monitor threads: an atomic, not a volatile
// sig_atomic_t, which is no synchronization between threads. A
// lock-free atomic is async-signal-safe.
std::atomic<int> gSignal{0};
static_assert(std::atomic<int>::is_always_lock_free);

extern "C" void
campaignSignalHandler(int signo)
{
    // Second interrupt: the user really means it. _Exit is
    // async-signal-safe; the journal holds every completed cell.
    if (gSignal.load(std::memory_order_relaxed) != 0)
        std::_Exit(nvmr::kExitSignalBase + signo);
    gSignal.store(signo, std::memory_order_relaxed);
}

} // namespace

void
installSignalHandlers()
{
    struct sigaction sa = {};
    sa.sa_handler = campaignSignalHandler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART keeps in-flight journal/manifest writes whole.
    sa.sa_flags = SA_RESTART;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

bool
interruptRequested()
{
    return gSignal.load(std::memory_order_relaxed) != 0;
}

int
pendingSignal()
{
    return gSignal.load(std::memory_order_relaxed);
}

int
interruptExitCode()
{
    int s = pendingSignal();
    return s ? kExitSignalBase + s : kExitOk;
}

void
setInterruptForTest(int signo)
{
    gSignal.store(signo, std::memory_order_relaxed);
}

} // namespace nvmr::campaign
