#include "serve/runner.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "check/fuzzcases.hh"
#include "common/exitcodes.hh"
#include "common/fsutil.hh"
#include "common/log.hh"
#include "cpu/decoded.hh"
#include "isa/assembler.hh"
#include "obs/manifest.hh"
#include "sim/experiment.hh"
#include "sim/randprog.hh"
#include "workloads/workloads.hh"

namespace nvmr::serve
{

namespace
{

bool
cancelSet(const std::atomic<bool> *cancel)
{
    return cancel && cancel->load(std::memory_order_relaxed);
}

campaign::Options
campaignOptions(const JobSpec &job, const JobRunOptions &opts)
{
    campaign::Options copts;
    copts.journalPath = opts.journalPath;
    copts.resume = opts.resume;
    copts.watchdogCycles = job.watchdogCycles;
    copts.watchdogRetries = job.watchdogRetries;
    copts.cancelFlag = opts.cancel;
    return copts;
}

/** Record how the campaign ended in the run's outcome. */
void
endCampaign(CampaignRun &run, const campaign::Campaign &cam,
            const JobRunOptions &opts)
{
    JobOutcome &o = run.outcome;
    if (cam.interrupted())
        o.phase = JobPhase::Interrupted;
    else if (cancelSet(opts.cancel))
        o.phase = JobPhase::Cancelled;
    o.cellsResumed = cam.resumedCells();
    o.cellsQuarantined = cam.quarantined().size();
    o.journalDegraded = cam.journalDegraded();
}

} // namespace

CampaignRun
runSweepCampaign(const JobSpec &job, const std::string &tool,
                 const JobRunOptions &opts, ProgramCache &programs)
{
    CampaignRun run(tool);
    const SweepParams &sp = job.sweep;

    // Names were validated by checkJob; the non-fatal lookups here
    // cannot fail.
    std::vector<ArchKind> arch_kinds(sp.archs.size());
    for (size_t i = 0; i < sp.archs.size(); ++i)
        archKindFromName(sp.archs[i], arch_kinds[i]);
    std::vector<PolicyKind> policy_kinds(sp.policies.size());
    for (size_t i = 0; i < sp.policies.size(); ++i)
        policyKindFromName(sp.policies[i], policy_kinds[i]);

    auto traces = HarvestTrace::standardSet(sp.traces);
    campaign::Campaign cam(tool, job.configSpec(),
                           campaignOptions(job, opts));

    struct Cell
    {
        size_t wl, ai, pi;
        double farads;
    };
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < sp.workloads.size(); ++wi)
        for (size_t ai = 0; ai < arch_kinds.size(); ++ai)
            for (size_t pi = 0; pi < policy_kinds.size(); ++pi)
                for (double farads : sp.caps)
                    cells.push_back(Cell{wi, ai, pi, farads});
    auto label = [&](size_t i) {
        const Cell &c = cells[i];
        return sp.workloads[c.wl] + "/" + sp.archs[c.ai] + "/" +
               sp.policies[c.pi];
    };

    // Assemble up front, on this thread, only the workloads that
    // still have fresh cells to run.
    std::vector<const Program *> images(sp.workloads.size(), nullptr);
    for (size_t i = 0; i < cells.size(); ++i)
        if (!cam.cellDone("grid", i) && !images[cells[i].wl])
            images[cells[i].wl] = &programs.get(sp.workloads[cells[i].wl]);

    auto cell_results = cam.runStage(
        "grid", cells.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            const Cell &c = cells[ctx.index];
            SystemConfig cfg;
            cfg.capacitorFarads = c.farads;
            PolicySpec spec;
            spec.kind = policy_kinds[c.pi];
            RunOptions ropts;
            if (ctx.budgetCycles)
                ropts.maxCycles = ctx.budgetCycles;
            ropts.cancel = ctx.cancel;
            ropts.engine = job.engine;
            auto runs = runOnTraces(*images[c.wl], arch_kinds[c.ai],
                                    cfg, spec, traces, ropts);
            // A cancelled run is indistinguishable from a blown
            // budget at the RunResult level; the flag is the tie
            // breaker, and it wins so the deadline path never
            // burns watchdog retries.
            if (cancelSet(ctx.cancel))
                throw campaign::CellCancelled{};
            if (ctx.budgetCycles)
                for (const RunResult &r : runs)
                    if (!r.completed)
                        throw campaign::CellTimeout{
                            label(ctx.index) + " exceeded " +
                            std::to_string(ctx.budgetCycles) +
                            " cycles on trace " + r.trace};
            return campaign::encodeRunResults(runs);
        });

    endCampaign(run, cam, opts);
    if (run.outcome.phase == JobPhase::Cancelled)
        return run; // the retry re-runs from the journal

    run.text = "workload,arch,policy,capacitor_f,total_uj,forward_uj,"
               "overhead_uj,backup_uj,restore_uj,reclaim_uj,dead_uj,"
               "backups,violations,renames,reclaims,power_failures,"
               "nvm_writes,max_wear,completed,validated\n";
    if (!cells.empty()) {
        SystemConfig cfg;
        cfg.capacitorFarads = cells[0].farads;
        run.manifest.setConfig(cfg);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cell_results[i].status != campaign::CellStatus::Done)
            continue; // quarantined or interrupt-skipped: no row
        const Cell &c = cells[i];
        std::vector<RunResult> runs;
        if (!campaign::decodeRunResults(cell_results[i].payload,
                                        runs)) {
            run.outcome.failReason =
                "corrupt journal payload for sweep cell " +
                std::to_string(i);
            run.outcome.resultCode = kExitDegraded;
            return run;
        }
        Aggregate a = aggregate(runs);
        for (const RunResult &r : runs)
            run.manifest.addRun(r);
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s,%s,%s,%g,%.2f,%.2f,%.2f,%.2f,%.2f,"
            "%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,"
            "%.0f,%d,%d\n",
            sp.workloads[c.wl].c_str(), sp.archs[c.ai].c_str(),
            sp.policies[c.pi].c_str(), c.farads,
            a.totalEnergyNj / 1000.0,
            a.energyOf(ECat::Forward) / 1000.0,
            (a.energyOf(ECat::ForwardOverhead) +
             a.energyOf(ECat::BackupOverhead) +
             a.energyOf(ECat::RestoreOverhead)) /
                1000.0,
            a.energyOf(ECat::Backup) / 1000.0,
            a.energyOf(ECat::Restore) / 1000.0,
            a.energyOf(ECat::Reclaim) / 1000.0,
            a.energyOf(ECat::Dead) / 1000.0, a.backups,
            a.violations, a.renames, a.reclaims, a.powerFailures,
            a.nvmWrites, a.maxWear, a.allCompleted ? 1 : 0,
            a.allValidated ? 1 : 0);
        run.text += row;
    }
    run.rendered = true;

    for (const auto &q : cam.quarantined())
        warn("quarantined cell ", q.index, " (", label(q.index),
             ") after ", q.attempts, " attempt(s): ", q.reason);

    // A spool job's manifest also names the job and its verdict.
    if (!job.name.empty())
        run.manifest.addExtra("job", job.name);
    run.manifest.addExtra("cells", static_cast<double>(cells.size()));
    run.manifest.addExtra("traces_per_cell",
                          static_cast<double>(traces.size()));
    if (!job.name.empty())
        run.manifest.addExtra(
            "result", run.outcome.phase == JobPhase::Interrupted
                          ? "interrupted"
                          : (cam.quarantined().empty() ? "ok"
                                                       : "quarantined"));
    run.manifest.addExtraJson(
        "quarantine",
        cam.quarantineJson([&](const campaign::QuarantineEntry &q) {
            return label(q.index);
        }));
    run.outcome.resultCode = cam.exitCode(kExitOk);
    return run;
}

CampaignRun
runFuzzCampaign(const JobSpec &job, const std::string &tool,
                const JobRunOptions &opts, const LineSink &sink)
{
    CampaignRun run(tool);
    const FuzzParams &fp = job.fuzz;
    campaign::Campaign cam(tool, job.configSpec(),
                           campaignOptions(job, opts));
    auto emit = [&](const std::string &line) {
        run.text += line;
        if (sink)
            sink(line);
    };

    // Fan (program, case) pairs across the engine in chunks of 10
    // programs. Workers only simulate; this thread scans each chunk's
    // outcomes in canonical order, so the first failure reported --
    // and the run count at that point -- is the same whatever the
    // worker count. Each chunk is one campaign stage: clean cells are
    // journaled, so a resume skips straight past fully-checked chunks
    // without even re-assembling their programs.
    struct Pair
    {
        uint64_t seed;
        uint64_t caseIdx; ///< 1-based index into fuzzCases()
        size_t prog;      ///< index into the chunk's program vector
    };
    constexpr uint64_t kChunkProgs = 10;
    uint64_t cases_per_prog =
        fuzzCaseCount() - (fp.faults ? 1 : 0); // ideal skipped on
                                               // faults
    par::Progress progress("fuzz", fp.iterations * cases_per_prog);

    uint64_t runs = 0;
    bool diverged = false;
    for (uint64_t i = 0;
         i < fp.iterations && !cam.interrupted() && !diverged &&
         !cancelSet(opts.cancel);
         i += kChunkProgs) {
        uint64_t chunk = std::min(kChunkProgs, fp.iterations - i);
        std::string stage = "c" + std::to_string(i);
        std::vector<Pair> pairs;
        for (uint64_t p = 0; p < chunk; ++p) {
            uint64_t seed = fp.baseSeed + i + p;
            for (uint64_t ci = 1; ci <= fuzzCaseCount(); ++ci) {
                // Ideal relies on the perfect-JIT assumption that
                // power never fails unexpectedly; injected crashes
                // break it.
                if (fp.faults &&
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
            // Assembly stays on this thread: workers must not race
            // the assembler caches.
            for (uint64_t p = 0; p < chunk; ++p) {
                uint64_t seed = fp.baseSeed + i + p;
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
                if (fp.faults)
                    fc = randomFuzzFaults(pr.seed, pr.caseIdx);
                FuzzOutcome out = evalFuzzCase(
                    progs[pr.prog], texts[pr.prog], pr.seed, c,
                    fp.faults ? &fc : nullptr, fp.oracle,
                    ctx.budgetCycles, ctx.cancel, job.engine);
                if (cancelSet(ctx.cancel))
                    throw campaign::CellCancelled{};
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
                // Only failures land in the manifest: a campaign
                // makes tens of thousands of runs and the
                // interesting ones are the repros.
                const Pair &pr = pairs[k];
                run.manifest.addRun(outs[k].run);
                emit(renderFuzzFailure(outs[k], pr.seed, pr.caseIdx,
                                       fp.faults, fp.oracle));
                run.divergence = std::move(outs[k]);
                diverged = true;
                break;
            }
            ++runs;
        }
        uint64_t done = i + chunk;
        if (!diverged && done % 10 == 0 && !cam.interrupted())
            emit(std::to_string(done) + " programs, " +
                 std::to_string(runs) + " runs, all consistent\n");
    }
    progress.finish();

    endCampaign(run, cam, opts);
    if (run.outcome.phase == JobPhase::Cancelled && !diverged)
        return run;

    const char *result = "no divergence";
    int verdict = kExitOk;
    if (diverged) {
        run.outcome.failReason = "divergence";
        result = "divergence";
        verdict = kExitMismatch;
        // A divergence is a final verdict even if the deadline also
        // fired; resumes reproduce it (failures are never journaled).
        run.outcome.phase = JobPhase::Complete;
    } else if (run.outcome.phase == JobPhase::Interrupted) {
        emit("interrupted: " + std::to_string(runs) +
             " clean runs checkpointed\n");
        result = "interrupted";
    } else {
        for (const auto &q : cam.quarantined())
            warn("quarantined ", q.stage, "/", q.index, " after ",
                 q.attempts, " attempt(s): ", q.reason);
        if (!cam.quarantined().empty())
            result = "quarantined";
        emit("fuzzing done: " + std::to_string(runs) +
             " runs, no divergence\n");
    }
    run.rendered = true;

    if (!job.name.empty())
        run.manifest.addExtra("job", job.name);
    run.manifest.addExtra("iterations",
                          static_cast<double>(fp.iterations));
    run.manifest.addExtra("base_seed", static_cast<double>(fp.baseSeed));
    run.manifest.addExtra("faults_mode", fp.faults ? 1.0 : 0.0);
    run.manifest.addExtra("oracle_mode", fp.oracle ? 1.0 : 0.0);
    run.manifest.addExtra("runs", static_cast<double>(runs));
    run.manifest.addExtra("result", result);
    run.manifest.addExtraJson("quarantine", cam.quarantineJson());
    run.outcome.resultCode = cam.exitCode(verdict);
    return run;
}

const Program &
ProgramCache::get(const std::string &workload)
{
    auto it = cache.find(workload);
    if (it != cache.end())
        return it->second;
    Program prog = assembleWorkload(workload);
    // Count the images the Program caches once it runs, too: the
    // decoded-op image (default threaded engine) and the golden run.
    bytes += prog.text.size() * sizeof(Instruction) +
             prog.data.size() + workload.size() +
             decodedImageBytes(prog) + goldenImageBytes(prog);
    return cache.emplace(workload, std::move(prog)).first->second;
}

JobOutcome
runJob(const JobSpec &job, const JobRunOptions &opts,
       ProgramCache &programs)
{
    CampaignRun run =
        job.type == JobType::Fuzz
            ? runFuzzCampaign(job, "nvmr_serve", opts)
            : runSweepCampaign(job, "nvmr_serve", opts, programs);
    if (!run.rendered)
        return run.outcome;

    // Land the artifacts atomically; failing to is a degraded
    // result, never a lost verdict.
    std::string base = opts.outDir + "/" + job.name;
    std::string path =
        base + (job.type == JobType::Fuzz ? ".out" : ".csv");
    std::string err;
    bool written = atomicWriteFile(path, run.text, &err);
    if (!written)
        warn("job ", job.name, ": cannot write ", path, ": ", err);
    written = run.manifest.tryWriteFile(base + ".stats.json") &&
              written;
    if (!written && run.outcome.resultCode == kExitOk)
        run.outcome.resultCode = kExitDegraded;
    return run.outcome;
}

} // namespace nvmr::serve
