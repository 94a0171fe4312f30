/**
 * @file
 * Supervised long-running job-queue service: watch a spool directory
 * for `nvmr-job-v1` JSON files and run each through the crash-safe
 * campaign engine -- sweep and fuzz campaigns in one warm process.
 * See docs/operations.md "Running nvmr_serve" for the spool format,
 * backpressure knobs, drain semantics and the resume runbook.
 *
 *     nvmr_serve --spool DIR                 # serve until signalled
 *     nvmr_serve --spool DIR --once          # drain the spool, exit
 *     nvmr_serve --spool DIR --resume        # continue after a crash
 *     nvmr_serve --spool DIR --jobs 8        # worker width
 *     nvmr_serve --spool DIR --engine interp  # default engine
 *     nvmr_serve --spool DIR --state DIR     # journals/outputs here
 *                                            # (default SPOOL/.nvmr_serve)
 *     --poll-ms N            spool scan period when idle (500)
 *     --drain-grace-ms N     SIGTERM: cancel in-flight cells after N
 *     --max-queued-jobs N    admission backpressure (16)
 *     --max-inflight-cells N clamp worker width
 *     --max-resident-bytes N decoded-image/result backpressure
 *     --job-metrics-interval SECS   per-job heartbeat period (5)
 *     --no-job-metrics              disable per-job heartbeats
 *     --retry-base-ms N      deadline-retry backoff base (100)
 *
 * Exit codes follow the common ladder: 0 all jobs clean, 1 any
 * verification mismatch, 2 usage, 3 any failed/quarantined job or a
 * degraded journal; a second SIGINT/SIGTERM force-exits 128+signal.
 */

#include <cstdlib>
#include <cstring>
#include <string>

#include "campaign/sig.hh"
#include "cli.hh"
#include "common/log.hh"
#include "serve/service.hh"

using namespace nvmr;

int
main(int argc, char **argv)
{
    setQuiet(false);
    campaign::installSignalHandlers();
    serve::ServeOptions opts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };
    auto needU64 = [&](int &i) -> uint64_t {
        const char *v = need(i);
        char *end = nullptr;
        uint64_t out = std::strtoull(v, &end, 10);
        fatal_if(!end || *end != '\0', "bad value '", v, "' for ",
                 argv[i - 1]);
        return out;
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i))
            continue;
        if (cli::handleEngineArg(argc, argv, i))
            continue;
        std::string a = argv[i];
        if (a == "--spool") {
            opts.spoolDir = need(i);
        } else if (a == "--state") {
            opts.stateDir = need(i);
        } else if (a == "--once") {
            opts.once = true;
        } else if (a == "--resume") {
            opts.resume = true;
        } else if (a == "--poll-ms") {
            opts.pollMs = needU64(i);
        } else if (a == "--drain-grace-ms") {
            opts.graceMs = needU64(i);
        } else if (a == "--max-queued-jobs") {
            uint64_t v = needU64(i);
            fatal_if(v == 0, "--max-queued-jobs must be positive");
            opts.maxQueuedJobs = static_cast<unsigned>(v);
        } else if (a == "--max-inflight-cells") {
            opts.maxInflightCells = needU64(i);
        } else if (a == "--max-resident-bytes") {
            opts.maxResidentBytes = needU64(i);
        } else if (a == "--job-metrics-interval") {
            const char *v = need(i);
            char *end = nullptr;
            opts.jobMetricsInterval = std::strtod(v, &end);
            fatal_if(!end || *end != '\0' ||
                         opts.jobMetricsInterval <= 0,
                     "bad --job-metrics-interval '", v, "'");
        } else if (a == "--no-job-metrics") {
            opts.jobMetricsInterval = 0;
        } else if (a == "--retry-base-ms") {
            opts.retryBackoff.baseNs = needU64(i) * 1'000'000ull;
        } else {
            fatal("unknown argument '", a,
                  "' (see docs/operations.md)");
        }
    }
    fatal_if(opts.spoolDir.empty(), "--spool DIR is required");

    serve::Service service(std::move(opts));
    int rc = service.run();
    // The graceful-drain exit reports job health, not the signal:
    // the ladder (0/1/3) is what fleet drivers triage on, and a
    // drain that checkpointed cleanly is not an error.
    return rc;
}
