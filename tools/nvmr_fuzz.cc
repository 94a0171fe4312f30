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
 * The (program, case) grid runs through the campaign layer
 * (docs/operations.md): clean cells are journaled so a killed
 * campaign resumes without re-fuzzing them, a watchdog budget
 * quarantines hung cells, and any divergence exits nonzero (1) with
 * the repro line -- divergences are never journaled, so a resume
 * reproduces them.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sig.hh"
#include "check/fuzzcases.hh"
#include "check/runner.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"

using namespace nvmr;

// The case grid, the per-pair fault derivation and the evaluator live
// in check/fuzzcases.{hh,cc}, shared with the nvmr_serve fuzz-job
// runner so both check the identical grid. This file keeps the CLI,
// the chunked campaign driver and all reporting.

namespace
{

/** The one-line command that replays exactly this (seed, case). */
void
printReproLine(uint64_t seed, uint64_t case_idx, const FuzzCase &c,
               bool faults_mode, bool oracle_mode)
{
    std::printf("repro: nvmr_fuzz%s%s --one %llu %llu   # %s/%s at "
                "%g F%s\n",
                faults_mode ? " --faults" : "",
                oracle_mode ? " --oracle" : "",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(case_idx),
                archKindName(c.arch), policyKindName(c.policy),
                c.farads, c.byteLbf ? " (byte LBF)" : "");
}

/** Print a failed outcome and save its repro (main thread only). */
void
reportFailure(const FuzzOutcome &out, uint64_t seed,
              uint64_t case_idx, const FuzzCase &c, bool faults_mode,
              bool oracle_mode, ManifestWriter *manifest)
{
    // Only failures land in the manifest: a fuzz campaign makes tens
    // of thousands of runs and the interesting ones are the repros.
    if (manifest)
        manifest->addRun(out.run);
    if (oracle_mode) {
        std::printf("\nFAILURE: seed %llu on %s/%s at %g F: ",
                    static_cast<unsigned long long>(seed),
                    archKindName(c.arch), policyKindName(c.policy),
                    c.farads);
        std::fputs(out.checkText.c_str(), stdout);
        printReproLine(seed, case_idx, c, faults_mode, true);
        if (saveRepro("nvmr_fuzz_failure.repro", out.cc))
            std::printf("also saved nvmr_fuzz_failure.repro; shrink "
                        "with: nvmr_diff --shrink "
                        "nvmr_fuzz_failure.repro\n");
        return;
    }
    std::printf("\nFAILURE: seed %llu on %s/%s at %g F: %s\n",
                static_cast<unsigned long long>(seed),
                archKindName(c.arch), policyKindName(c.policy),
                c.farads,
                out.run.completed ? "final state diverged"
                                  : "did not complete");
    if (out.haveFaults)
        std::printf("faults: crashAtPersist=%llu crashAtCycle=%llu "
                    "transientBitErrorRate=%g\n",
                    static_cast<unsigned long long>(
                        out.faults.crashAtPersist),
                    static_cast<unsigned long long>(
                        out.faults.crashAtCycle),
                    out.faults.transientBitErrorRate);
    printReproLine(seed, case_idx, c, faults_mode, false);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    bool faults_mode = false;
    bool oracle_mode = false;
    bool one_mode = false;
    uint64_t one_seed = 0;
    uint64_t one_case = 0;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;
    uint64_t positional[2] = {100, 1};
    int npos = 0;
    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i)) {
        } else if (cli::handleEngineArg(argc, argv, i)) {
        } else if (cli::handleCampaignArg(argc, argv, i, copts)) {
        } else if (cli::handleTelemetryArg(argc, argv, i, topts)) {
        } else if (std::strcmp(argv[i], "--faults") == 0) {
            faults_mode = true;
        } else if (std::strcmp(argv[i], "--oracle") == 0) {
            oracle_mode = true;
        } else if (std::strcmp(argv[i], "--one") == 0) {
            if (i + 2 >= argc)
                fatal("--one needs SEED and CASE_IDX");
            one_mode = true;
            one_seed = std::strtoull(argv[++i], nullptr, 10);
            one_case = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--stats-json") == 0) {
            if (i + 1 >= argc)
                fatal("missing value for --stats-json");
            stats_json_path = argv[++i];
        } else if (npos < 2) {
            positional[npos++] = std::strtoull(argv[i], nullptr, 10);
        }
    }
    uint64_t iterations = positional[0];
    uint64_t base_seed = positional[1];

    if (one_mode) {
        if (one_case < 1 || one_case > fuzzCaseCount())
            fatal("case index out of range (1..",
                  static_cast<uint64_t>(fuzzCaseCount()), ")");
        std::string text = makeRandomProgram(one_seed);
        Program prog =
            assemble("fuzz" + std::to_string(one_seed), text);
        const FuzzCase &c = fuzzCases()[one_case - 1];
        FaultConfig fc;
        if (faults_mode)
            fc = randomFuzzFaults(one_seed, one_case);
        FuzzOutcome out =
            evalFuzzCase(prog, text, one_seed, c,
                         faults_mode ? &fc : nullptr, oracle_mode);
        if (!out.ok)
            reportFailure(out, one_seed, one_case, c, faults_mode,
                          oracle_mode, nullptr);
        std::printf(out.ok ? "case clean\n" : "case FAILED\n");
        return out.ok ? kExitOk : kExitMismatch;
    }

    // Everything that shapes the (program, case) grid or the per-cell
    // verdicts gates --resume.
    std::string config_spec =
        "fuzz|iterations=" + std::to_string(iterations) +
        "|base_seed=" + std::to_string(base_seed) +
        "|faults=" + std::to_string(faults_mode ? 1 : 0) +
        "|oracle=" + std::to_string(oracle_mode ? 1 : 0);
    cli::appendWatchdogSpec(config_spec, copts);

    obs::Telemetry telemetry("nvmr_fuzz", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_fuzz", config_spec, copts);

    ManifestWriter manifest("nvmr_fuzz");
    ManifestWriter *mptr =
        stats_json_path.empty() ? nullptr : &manifest;
    bool manifest_ok = true;
    auto writeManifest = [&](uint64_t runs, const char *result) {
        if (!mptr)
            return;
        manifest.addExtra("iterations",
                          static_cast<double>(iterations));
        manifest.addExtra("base_seed",
                          static_cast<double>(base_seed));
        manifest.addExtra("faults_mode", faults_mode ? 1.0 : 0.0);
        manifest.addExtra("oracle_mode", oracle_mode ? 1.0 : 0.0);
        manifest.addExtra("runs", static_cast<double>(runs));
        manifest.addExtra("result", result);
        manifest.addExtraJson("quarantine", cam.quarantineJson());
        manifest_ok = manifest.tryWriteFile(stats_json_path);
    };

    // Fan (program, case) pairs across the engine in chunks of 10
    // programs. Workers only simulate; the main thread scans each
    // chunk's outcomes in canonical order, so the first failure
    // reported -- and the run count at that point -- is the same
    // whatever the worker count. Each chunk is one campaign stage:
    // clean cells are journaled, so a resume skips straight past
    // fully-checked chunks without even re-assembling their programs.
    struct Pair
    {
        uint64_t seed;
        uint64_t caseIdx; ///< 1-based index into kCases
        size_t prog;      ///< index into the chunk's program vector
    };
    constexpr uint64_t kChunkProgs = 10;
    uint64_t cases_per_prog =
        fuzzCaseCount() - (faults_mode ? 1 : 0); // ideal skipped
                                                 // on faults
    par::Progress progress("fuzz", iterations * cases_per_prog);

    uint64_t runs = 0;
    for (uint64_t i = 0; i < iterations && !cam.interrupted();
         i += kChunkProgs) {
        uint64_t chunk = std::min(kChunkProgs, iterations - i);
        std::string stage = "c" + std::to_string(i);
        std::vector<Pair> pairs;
        for (uint64_t p = 0; p < chunk; ++p) {
            uint64_t seed = base_seed + i + p;
            for (uint64_t ci = 1; ci <= fuzzCaseCount(); ++ci) {
                // Ideal relies on the perfect-JIT assumption that
                // power never fails unexpectedly; injected crashes
                // break it.
                if (faults_mode &&
                    fuzzCases()[ci - 1].arch == ArchKind::Ideal)
                    continue;
                pairs.push_back(Pair{seed, ci, p});
            }
        }
        bool any_fresh = false;
        for (size_t k = 0; k < pairs.size() && !any_fresh; ++k)
            any_fresh = !cam.cellDone(stage, k);
        std::vector<std::string> texts(chunk);
        std::vector<Program> progs(chunk);
        if (any_fresh) {
            // Assembly stays on the main thread: workers must not
            // race the assembler caches.
            for (uint64_t p = 0; p < chunk; ++p) {
                uint64_t seed = base_seed + i + p;
                texts[p] = makeRandomProgram(seed);
                progs[p] = assemble("fuzz" + std::to_string(seed),
                                    texts[p]);
            }
        }
        // Failure detail rides in this side table; the journal only
        // carries an "ok" marker (failures are never journaled, so a
        // resumed campaign re-runs and reproduces them).
        std::vector<FuzzOutcome> outs(pairs.size());
        auto results = cam.runStage(
            stage, pairs.size(),
            [&](const campaign::CellContext &ctx)
                -> std::optional<std::string> {
                const Pair &pr = pairs[ctx.index];
                const FuzzCase &c = fuzzCases()[pr.caseIdx - 1];
                FaultConfig fc;
                if (faults_mode)
                    fc = randomFuzzFaults(pr.seed, pr.caseIdx);
                FuzzOutcome out = evalFuzzCase(
                    progs[pr.prog], texts[pr.prog], pr.seed, c,
                    faults_mode ? &fc : nullptr, oracle_mode,
                    ctx.budgetCycles);
                if (ctx.budgetCycles && !out.ok && !out.skipped &&
                    !out.run.completed)
                    throw campaign::CellTimeout{
                        "seed " + std::to_string(pr.seed) + " case " +
                        std::to_string(pr.caseIdx) + " exceeded " +
                        std::to_string(ctx.budgetCycles) + " cycles"};
                if (!out.ok) {
                    outs[ctx.index] = std::move(out);
                    return std::nullopt;
                }
                return std::string("ok");
            },
            &progress);
        for (size_t k = 0; k < pairs.size(); ++k) {
            const campaign::CellResult &res = results[k];
            if (res.status == campaign::CellStatus::Skipped ||
                res.status == campaign::CellStatus::Quarantined)
                continue; // interrupt / reported at the end
            if (res.status == campaign::CellStatus::Failed) {
                const Pair &pr = pairs[k];
                reportFailure(outs[k], pr.seed, pr.caseIdx,
                              fuzzCases()[pr.caseIdx - 1],
                              faults_mode, oracle_mode, mptr);
                writeManifest(runs, "divergence");
                std::fflush(stdout);
                return cam.exitCode(kExitMismatch);
            }
            ++runs;
        }
        uint64_t done = i + chunk;
        if (done % 10 == 0 && !cam.interrupted())
            std::printf("%llu programs, %llu runs, all consistent\n",
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(runs));
    }
    progress.finish();

    if (cam.interrupted()) {
        std::printf("interrupted: %llu clean runs checkpointed\n",
                    static_cast<unsigned long long>(runs));
        writeManifest(runs, "interrupted");
        std::fflush(stdout);
        return cam.exitCode(kExitOk);
    }

    for (const auto &q : cam.quarantined())
        warn("quarantined ", q.stage, "/", q.index, " after ",
             q.attempts, " attempt(s): ", q.reason);

    std::printf("fuzzing done: %llu runs, no divergence\n",
                static_cast<unsigned long long>(runs));
    writeManifest(runs, cam.quarantined().empty() ? "no divergence"
                                                  : "quarantined");
    int rc = kExitOk;
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing to stdout");
        rc = kExitDegraded;
    }
    if (!manifest_ok)
        rc = kExitDegraded;
    return cam.exitCode(rc);
}
