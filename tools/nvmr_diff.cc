/**
 * @file
 * Differential oracle driver: prove every architecture recovers a
 * correct final state under hostile power schedules. For each
 * architecture it runs a census of where backups commit, generates
 * adversarial crash schedules aimed at those instants (plus brownout
 * storms and window-coverage random schedules), and runs every
 * schedule under the lockstep invariant checker, diffing the
 * recovered final state word-by-word against the golden reference
 * interpreter.
 *
 *     nvmr_diff                         # full campaign (1000/arch)
 *     nvmr_diff --schedules 200         # smaller campaign
 *     nvmr_diff --arch nvmr --seed 7    # one architecture, new program
 *     nvmr_diff --smoke                 # 1 schedule/arch (ctest)
 *     nvmr_diff --replay case.repro     # re-run a saved failure
 *     nvmr_diff --shrink case.repro out.repro   # minimize a failure
 *     nvmr_diff --bug rename_alias      # seeded-bug demo: catch,
 *                                       # shrink, save a .repro
 *     nvmr_diff --jobs 8                # worker count (or NVMR_JOBS)
 *     nvmr_diff --engine interp         # engine (or NVMR_ENGINE)
 *     nvmr_diff --journal d.jrn         # checkpoint; --resume d.jrn
 *     nvmr_diff --metrics m.json        # heartbeat snapshots
 *
 * The flags fill a diff JobSpec (serve/job.hh), checked by the same
 * rules as an nvmr_serve diff job, and the schedules run through the
 * shared diff campaign (serve/runner.hh, serve/diff.cc). Any failure
 * saves a self-contained `.repro` file and prints the one-line
 * replay command; exit status is non-zero (1 for a divergence, 2 for
 * usage errors, 3 for quarantined cells, 128+signal when interrupted
 * -- see docs/operations.md).
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/sig.hh"
#include "check/runner.hh"
#include "check/shrink.hh"
#include "cli.hh"
#include "common/log.hh"
#include "serve/runner.hh"

using namespace nvmr;

namespace
{

int
replay(const std::string &path)
{
    CheckCase c;
    std::string error;
    if (!loadRepro(path, c, error)) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    CheckOutcome out = runChecked(c);
    std::printf("%s: %s\n", c.name.c_str(), out.describe().c_str());
    std::fputs(out.detail().c_str(), stdout);
    return out.clean() ? 0 : 1;
}

int
shrink(const std::string &in_path, const std::string &out_path)
{
    CheckCase c;
    std::string error;
    if (!loadRepro(in_path, c, error)) {
        std::fprintf(stderr, "cannot load %s: %s\n", in_path.c_str(),
                     error.c_str());
        return 2;
    }
    ShrinkResult r = shrinkCase(c);
    if (!r.verifiedFailing) {
        std::printf("case is clean; nothing to shrink (%u runs)\n",
                    r.runsUsed);
        return 1;
    }
    if (!saveRepro(out_path, r.minimized)) {
        std::fprintf(stderr, "cannot save %s\n", out_path.c_str());
        return 2;
    }
    size_t crashes = r.minimized.faults.crashPersists.size() +
                     r.minimized.faults.crashCycles.size();
    std::printf("shrunk to %zu crash point(s), %zu program bytes in "
                "%u runs; saved %s\n",
                crashes, r.minimized.programText.size(), r.runsUsed,
                out_path.c_str());
    std::printf("replay with: nvmr_diff --replay %s\n",
                out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    serve::JobSpec job;
    job.type = serve::JobType::Diff;
    serve::DiffParams &dp = job.diff;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return argv[++i];
        };
        if (cli::handleJobsArg(argc, argv, i)) {
        } else if (cli::handleEngineArg(argc, argv, i)) {
        } else if (cli::handleCampaignArg(argc, argv, i, copts)) {
        } else if (cli::handleTelemetryArg(argc, argv, i, topts)) {
        } else if (std::strcmp(argv[i], "--schedules") == 0) {
            dp.schedules =
                cli::parseCount("--schedules", need("--schedules"));
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            dp.seed = cli::parseCount("--seed", need("--seed"));
        } else if (std::strcmp(argv[i], "--arch") == 0) {
            dp.archs = {need("--arch")};
        } else if (std::strcmp(argv[i], "--stats-json") == 0) {
            stats_json_path = need("--stats-json");
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            dp.smoke = true;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            return replay(need("--replay"));
        } else if (std::strcmp(argv[i], "--shrink") == 0) {
            std::string in = need("--shrink");
            std::string out = i + 1 < argc && argv[i + 1][0] != '-'
                                  ? argv[++i]
                                  : in + ".min";
            return shrink(in, out);
        } else if (std::strcmp(argv[i], "--bug") == 0) {
            std::string v = need("--bug");
            fatal_if(!injectedBugFromName(v, dp.bug) ||
                         dp.bug == InjectedBug::None,
                     "unknown --bug ", v,
                     " (rename_alias | freelist_leak)");
        } else {
            fatal("unknown argument ", argv[i]);
        }
    }
    serve::JobRunOptions ropts = cli::checkedJob(job, copts);

    obs::Telemetry telemetry("nvmr_diff", topts,
                             campaign::interruptRequested);

    serve::CampaignRun run =
        serve::runDiffCampaign(job, "nvmr_diff", ropts, cli::printLine);
    fatal_if(!run.rendered, run.outcome.failReason);
    if (run.failingCase) {
        const char *path = "nvmr_diff_failure.repro";
        if (saveRepro(path, *run.failingCase))
            std::printf("repro saved; replay with: nvmr_diff --replay "
                        "%s\nminimize with: nvmr_diff --shrink %s\n",
                        path, path);
        else
            std::printf("could not save %s\n", path);
    }
    return cli::finishRun(run, stats_json_path);
}
