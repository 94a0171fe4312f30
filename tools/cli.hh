/**
 * @file
 * Shared command-line parsing for the tool drivers: enum-valued
 * arguments are validated the moment they are read, and a bad value
 * dies with the full list of valid choices instead of a bare
 * "unknown" complaint deep into the run.
 */

#ifndef NVMR_TOOLS_CLI_HH
#define NVMR_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/campaign.hh"
#include "common/log.hh"
#include "obs/heartbeat.hh"
#include "par/par.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"

namespace nvmr::cli
{

/**
 * Handle a `--jobs N` argument pair inside a tool's arg loop: when
 * argv[i] is `--jobs`, consume its value, wire it into the parallel
 * engine (par::setGlobalJobs) and return true. The NVMR_JOBS
 * environment variable provides the same control without a flag;
 * results are bit-identical for every worker count
 * (docs/performance.md).
 */
inline bool
handleJobsArg(int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--jobs") != 0)
        return false;
    if (i + 1 >= argc)
        fatal("missing value for --jobs");
    par::setGlobalJobs(par::parseJobsValue(argv[++i]));
    return true;
}

/**
 * Parse the value of a count flag (`--stride 4`): a whole decimal
 * number with no sign, no trailing text and no overflow. Anything
 * else dies with fatal (exit 2) instead of silently becoming 0, so a
 * typo cannot turn a campaign into a vacuous pass.
 */
inline uint64_t
parseCount(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    uint64_t v = std::strtoull(text, &end, 10);
    fatal_if(!std::isdigit(static_cast<unsigned char>(text[0])) ||
                 *end != '\0' || errno == ERANGE,
             "bad ", flag, " value '", text,
             "' (need a whole number)");
    return v;
}

/**
 * Handle an `--engine NAME` argument pair inside a tool's arg loop:
 * when argv[i] is `--engine`, consume its value (interp | threaded;
 * threaded is the default when neither the flag nor NVMR_ENGINE is
 * set) and wire it into the engine selection (setGlobalEngine). The
 * NVMR_ENGINE environment variable provides the same control without
 * a flag. Both engines produce bit-identical results, so the choice
 * is a host-side speed knob and never enters a config spec
 * (docs/performance.md, "Execution engines").
 */
inline bool
handleEngineArg(int argc, char **argv, int &i)
{
    if (std::strcmp(argv[i], "--engine") != 0)
        return false;
    if (i + 1 >= argc)
        fatal("missing value for --engine");
    setGlobalEngine(parseEngineKind(argv[++i]));
    return true;
}

/**
 * Handle the shared crash-safety flags inside a tool's arg loop
 * (docs/operations.md):
 *
 *     --journal FILE          checkpoint completed cells to FILE
 *     --resume FILE           skip cells already completed in FILE
 *     --watchdog-cycles N     per-cell simulated-cycle budget
 *     --watchdog-retries N    budget-doubling retries before quarantine
 *
 * Returns true when argv[i] was one of them (consuming its value).
 */
inline bool
handleCampaignArg(int argc, char **argv, int &i,
                  campaign::Options &opts)
{
    auto need = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };
    std::string a = argv[i];
    if (a == "--journal") {
        opts.journalPath = need();
        return true;
    }
    if (a == "--resume") {
        opts.journalPath = need();
        opts.resume = true;
        return true;
    }
    if (a == "--watchdog-cycles") {
        opts.watchdogCycles = parseCount(a.c_str(), need());
        return true;
    }
    if (a == "--watchdog-retries") {
        uint64_t n = parseCount(a.c_str(), need());
        fatal_if(n > UINT_MAX, "bad --watchdog-retries value ", n,
                 " (at most ", UINT_MAX, ")");
        opts.watchdogRetries = static_cast<unsigned>(n);
        return true;
    }
    return false;
}

/**
 * Handle the shared host-telemetry flags inside a tool's arg loop
 * (docs/observability.md):
 *
 *     --metrics FILE            live heartbeat snapshots (atomic
 *                               nvmr-metrics-v1 JSON; final snapshot
 *                               on exit and on SIGINT/SIGTERM)
 *     --metrics-interval SECS   heartbeat period (default 5)
 *     --prof-json FILE          Perfetto host-span trace (ph:"X")
 *
 * Returns true when argv[i] was one of them (consuming its value).
 * Host-time telemetry never touches stdout/CSV/manifest output, so
 * enabling it preserves byte-identity of all deterministic outputs.
 */
inline bool
handleTelemetryArg(int argc, char **argv, int &i,
                   obs::TelemetryOptions &topts)
{
    auto need = [&]() -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };
    std::string a = argv[i];
    if (a == "--metrics") {
        topts.metricsPath = need();
        return true;
    }
    if (a == "--metrics-interval") {
        const char *v = need();
        char *end = nullptr;
        topts.intervalSecs = std::strtod(v, &end);
        fatal_if(!end || *end != '\0' || topts.intervalSecs <= 0,
                 "bad --metrics-interval '", v,
                 "' (need a positive number of seconds)");
        return true;
    }
    if (a == "--prof-json") {
        topts.profJsonPath = need();
        return true;
    }
    return false;
}

/** Append the watchdog knobs to a campaign config-spec string (they
 *  shape per-cell results, so a resume must match them; --jobs and
 *  output paths deliberately stay out). */
inline void
appendWatchdogSpec(std::string &spec, const campaign::Options &opts)
{
    spec += "|watchdog_cycles=";
    spec += std::to_string(opts.watchdogCycles);
    spec += "|watchdog_retries=";
    spec += std::to_string(opts.watchdogRetries);
}

inline ArchKind
parseArchKind(const std::string &name)
{
    if (name == "ideal")
        return ArchKind::Ideal;
    if (name == "clank")
        return ArchKind::Clank;
    if (name == "clank_original")
        return ArchKind::ClankOriginal;
    if (name == "task")
        return ArchKind::Task;
    if (name == "nvmr")
        return ArchKind::Nvmr;
    if (name == "hoop")
        return ArchKind::Hoop;
    fatal("unknown architecture '", name,
          "' (valid: ideal, clank, clank_original, task, nvmr, "
          "hoop)");
}

inline PolicyKind
parsePolicyKind(const std::string &name)
{
    if (name == "jit")
        return PolicyKind::Jit;
    if (name == "watchdog")
        return PolicyKind::Watchdog;
    if (name == "spendthrift")
        return PolicyKind::Spendthrift;
    if (name == "none")
        return PolicyKind::None;
    fatal("unknown policy '", name,
          "' (valid: jit, watchdog, spendthrift, none)");
}

inline TraceKind
parseTraceKind(const std::string &name)
{
    if (name == "rf")
        return TraceKind::Rf;
    if (name == "solar")
        return TraceKind::Solar;
    if (name == "wind")
        return TraceKind::Wind;
    fatal("unknown trace kind '", name, "' (valid: rf, solar, wind)");
}

} // namespace nvmr::cli

#endif // NVMR_TOOLS_CLI_HH
