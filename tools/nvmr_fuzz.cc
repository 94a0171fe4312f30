/**
 * @file
 * Differential correctness fuzzer: generate random programs and run
 * them intermittently across every architecture, policy and a grid
 * of capacitor sizes, comparing each final NVM state against the
 * continuously-powered execution. Any divergence (or stuck run)
 * prints a one-line repro command and stops with a non-zero exit.
 *
 *     nvmr_fuzz                 # 100 iterations from seed 1
 *     nvmr_fuzz 2000            # more iterations
 *     nvmr_fuzz 500 12345       # iterations + base seed
 *     nvmr_fuzz --faults 500    # also randomize crash points and
 *                               # correctable NVM bit-error rates
 *     nvmr_fuzz --oracle 500    # run every case under the golden
 *                               # oracle + lockstep invariant checker
 *                               # (src/check) instead of the plain
 *                               # golden-image comparison
 *     nvmr_fuzz --one SEED IDX  # re-run one (seed, case) pair -- the
 *                               # command a failure prints
 *     nvmr_fuzz --jobs 8 2000   # worker count (or NVMR_JOBS)
 *     nvmr_fuzz --engine interp 2000   # engine (or NVMR_ENGINE)
 *     nvmr_fuzz --journal f.jrn 2000   # checkpoint; --resume f.jrn
 *     nvmr_fuzz --metrics m.json 2000  # heartbeat snapshots
 *
 * The arguments fill a fuzz JobSpec (serve/job.hh), checked by the
 * same rules as an nvmr_serve fuzz job, and the (program, case) grid
 * runs through the shared fuzz campaign (serve/runner.hh): clean
 * cells are journaled so a killed campaign resumes without
 * re-fuzzing them, a watchdog budget quarantines hung cells, and any
 * divergence exits nonzero (1) with the repro line -- divergences
 * are never journaled, so a resume reproduces them.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/sig.hh"
#include "check/fuzzcases.hh"
#include "check/repro.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "serve/runner.hh"
#include "sim/randprog.hh"

using namespace nvmr;

namespace
{

/** Save an oracle-mode failure's repro next to the report. */
void
saveFailureRepro(const FuzzOutcome &out)
{
    if (saveRepro("nvmr_fuzz_failure.repro", out.cc))
        std::printf("also saved nvmr_fuzz_failure.repro; shrink "
                    "with: nvmr_diff --shrink "
                    "nvmr_fuzz_failure.repro\n");
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    serve::JobSpec job;
    job.type = serve::JobType::Fuzz;
    serve::FuzzParams &fp = job.fuzz;
    bool one_mode = false;
    uint64_t one_seed = 0;
    uint64_t one_case = 0;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;
    int npos = 0;
    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i)) {
        } else if (cli::handleEngineArg(argc, argv, i)) {
        } else if (cli::handleCampaignArg(argc, argv, i, copts)) {
        } else if (cli::handleTelemetryArg(argc, argv, i, topts)) {
        } else if (std::strcmp(argv[i], "--faults") == 0) {
            fp.faults = true;
        } else if (std::strcmp(argv[i], "--oracle") == 0) {
            fp.oracle = true;
        } else if (std::strcmp(argv[i], "--one") == 0) {
            if (i + 2 >= argc)
                fatal("--one needs SEED and CASE_IDX");
            one_mode = true;
            one_seed = cli::parseCount("--one SEED", argv[++i]);
            one_case = cli::parseCount("--one CASE_IDX", argv[++i]);
        } else if (std::strcmp(argv[i], "--stats-json") == 0) {
            if (i + 1 >= argc)
                fatal("missing value for --stats-json");
            stats_json_path = argv[++i];
        } else if (argv[i][0] == '-') {
            fatal("unknown argument '", argv[i], "'");
        } else if (npos == 0) {
            fp.iterations = cli::parseCount("ITERATIONS", argv[i]);
            ++npos;
        } else if (npos == 1) {
            fp.baseSeed = cli::parseCount("SEED", argv[i]);
            ++npos;
        } else {
            fatal("unexpected argument '", argv[i],
                  "' (usage: nvmr_fuzz [flags] [ITERATIONS [SEED]])");
        }
    }
    if (one_mode)
        fp.baseSeed = one_seed; // checked against the base-seed bound
    job.watchdogCycles = copts.watchdogCycles;
    job.watchdogRetries = copts.watchdogRetries;
    std::string error = serve::checkJob(job);
    fatal_if(!error.empty(), error);

    if (one_mode) {
        fatal_if(one_case < 1 || one_case > fuzzCaseCount(),
                 "case index out of range (1..",
                 static_cast<uint64_t>(fuzzCaseCount()), ")");
        uint64_t seed = fp.baseSeed;
        std::string text = makeRandomProgram(seed);
        Program prog = assemble("fuzz" + std::to_string(seed), text);
        FaultConfig fc;
        if (fp.faults)
            fc = randomFuzzFaults(seed, one_case);
        FuzzOutcome out =
            evalFuzzCase(prog, text, seed, fuzzCases()[one_case - 1],
                         fp.faults ? &fc : nullptr, fp.oracle);
        if (!out.ok) {
            std::fputs(renderFuzzFailure(out, seed, one_case,
                                         fp.faults, fp.oracle)
                           .c_str(),
                       stdout);
            if (fp.oracle)
                saveFailureRepro(out);
        }
        std::printf(out.ok ? "case clean\n" : "case FAILED\n");
        return out.ok ? kExitOk : kExitMismatch;
    }

    obs::Telemetry telemetry("nvmr_fuzz", topts,
                             campaign::interruptRequested);

    serve::JobRunOptions ropts;
    ropts.journalPath = copts.journalPath;
    ropts.resume = copts.resume;
    serve::CampaignRun run = serve::runFuzzCampaign(
        job, "nvmr_fuzz", ropts, [](const std::string &line) {
            std::fputs(line.c_str(), stdout);
            std::fflush(stdout);
        });
    if (fp.oracle && run.outcome.failReason == "divergence")
        saveFailureRepro(run.divergence);

    int rc = run.outcome.resultCode;
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing to stdout");
        rc = rc == kExitOk ? kExitDegraded : rc;
    }
    if (!stats_json_path.empty() &&
        !run.manifest.tryWriteFile(stats_json_path))
        rc = rc == kExitOk ? kExitDegraded : rc;
    return rc;
}
