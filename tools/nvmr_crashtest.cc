/**
 * @file
 * Systematic crash-point explorer: the crash-consistency analogue of
 * nvmr_fuzz. For each workload x architecture it first runs a census
 * pass that records the persist-boundary span of every backup (and
 * captures copy-on-write machine snapshots at strided safe points),
 * then explores a power failure injected at every persist boundary
 * of the first N backups (and at sampled mid-execution cycles),
 * requiring that every crashed run recovers, completes, and ends
 * with an NVM state identical to the golden continuous run.
 *
 *     nvmr_crashtest                       # full sweep, 50 backups
 *     nvmr_crashtest --smoke               # <30 s fixed-seed subset
 *     nvmr_crashtest -w hist,qsort -a nvmr --max-backups 10
 *     nvmr_crashtest --stride 4 --jobs 8   # --threads is an alias
 *     nvmr_crashtest --verify-fork 5       # cross-check 5 forks/combo
 *     nvmr_crashtest --journal c.jrn       # checkpoint; --resume
 *
 * The flags fill a crashtest JobSpec (serve/job.hh), checked by the
 * same rules as an nvmr_serve crashtest job, and the exploration
 * runs through the shared crashtest campaign (serve/runner.hh,
 * serve/crashtest.cc): one census stage and one points stage for the
 * whole campaign, each crash run forked from the latest snapshot
 * before its crash point. Unlike the fuzzer, point failures ARE
 * journaled -- a stuck or divergent crash point is a finding, the
 * sweep keeps going and reports it in the summary -- so a resumed
 * sweep replays recorded findings instead of re-running their cells.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <string>

#include "campaign/sig.hh"
#include "cli.hh"
#include "common/log.hh"
#include "serve/runner.hh"

using namespace nvmr;

namespace
{

void
usage()
{
    std::puts(
        "nvmr_crashtest: systematic crash-consistency explorer\n"
        "\n"
        "  -w, --workloads A,B   comma list (default: all workloads)\n"
        "  -a, --archs A,B       nvmr | clank | hoop | task | \n"
        "                        clank_original (default: nvmr,clank,"
        "hoop,task)\n"
        "  --max-backups N       explore the first N backups "
        "(default 50)\n"
        "  --stride N            crash at every Nth persist boundary "
        "(default 1)\n"
        "  --cycle-samples N     extra random crash cycles "
        "(default 8)\n"
        "  --seed N              seed for the cycle sampling "
        "(default 1)\n"
        "  --snap-stride N       snapshot every Nth safe point "
        "(default 4),\n"
        "                        until the census passes the "
        "explored backups\n"
        "  --verify-fork N       re-run N forked points per combo "
        "from\n"
        "                        scratch and require bit-identity\n"
        "  --jobs N              worker threads (default: NVMR_JOBS "
        "or all cores;\n"
        "                        --threads is an alias)\n"
        "  --smoke               fixed small subset for CI (<30 s)\n"
        "  --engine NAME         interp | threaded (default) "
        "execution engine\n"
        "  --stats-json FILE     write the sweep manifest as JSON\n"
        "  --metrics FILE        live heartbeat snapshots "
        "(docs/observability.md)\n"
        "  --prof-json FILE      Perfetto host-span trace\n"
        "  -v, --verbose         per-combination progress\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    serve::JobSpec job;
    job.type = serve::JobType::Crashtest;
    serve::CrashtestParams &cp = job.crashtest;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleEngineArg(argc, argv, i))
            continue;
        if (cli::handleCampaignArg(argc, argv, i, copts))
            continue;
        if (cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "-w" || a == "--workloads") {
            cp.workloads = cli::splitList(need(i));
        } else if (a == "-a" || a == "--archs") {
            cp.archs = cli::splitList(need(i));
        } else if (a == "--max-backups") {
            cp.maxBackups = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--stride") {
            cp.stride = std::max<uint64_t>(
                1, cli::parseCount(a.c_str(), need(i)));
        } else if (a == "--cycle-samples") {
            cp.cycleSamples = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--seed") {
            cp.seed = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--snap-stride") {
            cp.snapStride = std::max<uint64_t>(
                1, cli::parseCount(a.c_str(), need(i)));
        } else if (a == "--verify-fork") {
            cp.verifyFork = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--jobs" || a == "--threads") {
            // --threads predates the engine; 0 keeps the old
            // "use all cores" meaning (the engine's default).
            const char *v = need(i);
            uint64_t jobs = cli::parseCount(a.c_str(), v);
            fatal_if(jobs > UINT_MAX, "bad ", a, " value '", v, "'");
            par::setGlobalJobs(static_cast<unsigned>(jobs));
        } else if (a == "--smoke") {
            cp.workloads = {"hist", "qsort"};
            cp.maxBackups = 5;
            cp.stride = 9;
            cp.cycleSamples = 2;
            cp.seed = 1;
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else if (a == "-v" || a == "--verbose") {
            cp.verbose = true;
        } else if (a == "-h" || a == "--help") {
            usage();
            return 0;
        } else {
            fatal("unknown argument '", a, "'");
        }
    }
    serve::JobRunOptions ropts = cli::checkedJob(job, copts);

    obs::Telemetry telemetry("nvmr_crashtest", topts,
                             campaign::interruptRequested);

    serve::ProgramCache programs;
    serve::CampaignRun run = serve::runCrashtestCampaign(
        job, "nvmr_crashtest", ropts, programs, cli::printLine);
    fatal_if(!run.rendered, run.outcome.failReason);
    return cli::finishRun(run, stats_json_path);
}
