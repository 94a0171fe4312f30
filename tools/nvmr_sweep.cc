/**
 * @file
 * Grid-sweep driver with CSV output: run every workload across a
 * grid of architectures, policies and capacitor sizes and emit one
 * CSV row per cell, ready for plotting. This is the generic
 * companion to the fixed per-figure harnesses in bench/.
 *
 *     nvmr_sweep > sweep.csv
 *     nvmr_sweep --traces 3 --archs clank,nvmr --caps 0.1,0.0075
 *     nvmr_sweep --workloads hist --stats-json sweep.json
 *     nvmr_sweep --jobs 8                      # worker count
 *     nvmr_sweep --engine interp               # execution engine
 *     nvmr_sweep --journal sweep.jrn           # checkpoint cells
 *     nvmr_sweep --resume sweep.jrn            # skip finished cells
 *     nvmr_sweep --watchdog-cycles 50000000    # quarantine hangs
 *     nvmr_sweep --metrics live.json           # heartbeat snapshots
 *     nvmr_sweep --prof-json spans.json        # host span profile
 *
 * The flags fill a sweep JobSpec (serve/job.hh), checked by the same
 * rules as an nvmr_serve sweep job, and the grid runs through the
 * shared sweep campaign (serve/runner.hh): every finished cell is
 * journaled, a SIGKILL'd sweep resumes with byte-identical merged
 * output, hung cells are retried then quarantined into the manifest,
 * and SIGINT/SIGTERM flush a partial manifest before exiting
 * 128+signal.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/sig.hh"
#include "cli.hh"
#include "common/log.hh"
#include "serve/runner.hh"

using namespace nvmr;

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    serve::JobSpec job;
    job.type = serve::JobType::Sweep;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i))
            continue;
        if (cli::handleEngineArg(argc, argv, i))
            continue;
        if (cli::handleCampaignArg(argc, argv, i, copts))
            continue;
        if (cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "--traces") {
            // Clamped, not wrapped: checkJob rejects anything past 10.
            job.sweep.traces = static_cast<int>(std::min<uint64_t>(
                cli::parseCount("--traces", need(i)), INT_MAX));
        } else if (a == "--archs") {
            job.sweep.archs = cli::splitList(need(i));
        } else if (a == "--policies") {
            job.sweep.policies = cli::splitList(need(i));
        } else if (a == "--caps") {
            job.sweep.caps.clear();
            for (const std::string &c : cli::splitList(need(i))) {
                char *end = nullptr;
                job.sweep.caps.push_back(std::strtod(c.c_str(), &end));
                fatal_if(end == c.c_str() || *end,
                         "--caps values must be numbers, got '", c,
                         "'");
            }
        } else if (a == "--workloads") {
            job.sweep.workloads = cli::splitList(need(i));
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else {
            fatal("unknown argument '", a, "'");
        }
    }
    // Check the whole grid before running anything: a typo in the
    // last arch name should not surface hours into the sweep.
    serve::JobRunOptions ropts = cli::checkedJob(job, copts);

    // Host telemetry (off by default): heartbeat snapshots + span
    // profile go to their own files, never into the CSV or manifest.
    obs::Telemetry telemetry("nvmr_sweep", topts,
                             campaign::interruptRequested);

    serve::ProgramCache programs;
    serve::CampaignRun run =
        serve::runSweepCampaign(job, "nvmr_sweep", ropts, programs);
    fatal_if(!run.rendered, run.outcome.failReason);
    std::fputs(run.text.c_str(), stdout);
    return cli::finishRun(run, stats_json_path);
}
