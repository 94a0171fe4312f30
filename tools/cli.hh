/**
 * @file
 * Shared command-line parsing for the tools: the flags every
 * campaign tool takes (--jobs, --engine, the journal and watchdog
 * flags, telemetry), whole-number counts and comma lists. A bad
 * value dies with fatal (exit 2) the moment it is read.
 */

#ifndef NVMR_TOOLS_CLI_HH
#define NVMR_TOOLS_CLI_HH

#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "obs/heartbeat.hh"
#include "par/par.hh"
#include "serve/runner.hh"
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

/** Split a comma list ("hist,,qsort" -> hist, qsort): empty items
 *  are dropped. */
inline std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= value.size()) {
        size_t end = value.find(',', start);
        if (end == std::string::npos)
            end = value.size();
        if (end > start)
            out.push_back(value.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

/**
 * Copy the campaign flags into a job and check it with the serve job
 * rules (serve::checkJob), dying with the first violation before
 * anything runs. Returns the journal options to run it with.
 */
inline serve::JobRunOptions
checkedJob(serve::JobSpec &job, const campaign::Options &opts)
{
    job.watchdogCycles = opts.watchdogCycles;
    job.watchdogRetries = opts.watchdogRetries;
    std::string error = serve::checkJob(job);
    fatal_if(!error.empty(), error);
    serve::JobRunOptions ropts;
    ropts.journalPath = opts.journalPath;
    ropts.resume = opts.resume;
    return ropts;
}

/** LineSink that prints each campaign log line as it is rendered. */
inline void
printLine(const std::string &line)
{
    std::fputs(line.c_str(), stdout);
    std::fflush(stdout);
}

/**
 * A campaign tool's exit code once its output is printed: the run's
 * verdict, with a failure to write stdout or the --stats-json
 * manifest (when `stats_json` is set) folded in as degraded.
 */
inline int
finishRun(const serve::CampaignRun &run, const std::string &stats_json)
{
    int rc = run.outcome.resultCode;
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing to stdout");
        rc = rc == kExitOk ? kExitDegraded : rc;
    }
    if (!stats_json.empty() && !run.manifest.tryWriteFile(stats_json))
        rc = rc == kExitOk ? kExitDegraded : rc;
    return rc;
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

} // namespace nvmr::cli

#endif // NVMR_TOOLS_CLI_HH
