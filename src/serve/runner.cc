#include "serve/runner.hh"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "check/fuzzcases.hh"
#include "check/repro.hh"
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

std::string
outPath(const JobRunOptions &opts, const std::string &name,
        const char *suffix)
{
    return opts.outDir + "/" + name + suffix;
}

/** Translate campaign end state into a job phase. */
JobPhase
endPhase(const campaign::Campaign &cam, const JobRunOptions &opts)
{
    if (cam.interrupted())
        return JobPhase::Interrupted;
    if (cancelSet(opts.cancel))
        return JobPhase::Cancelled;
    return JobPhase::Complete;
}

JobOutcome
runSweepJob(const JobSpec &job, const JobRunOptions &opts,
            ProgramCache &programs)
{
    JobOutcome outcome;
    const SweepParams &sp = job.sweep;

    // Names were validated at parse time; the non-fatal lookups here
    // cannot fail.
    std::vector<ArchKind> arch_kinds(sp.archs.size());
    for (size_t i = 0; i < sp.archs.size(); ++i)
        archKindFromName(sp.archs[i], arch_kinds[i]);
    std::vector<PolicyKind> policy_kinds(sp.policies.size());
    for (size_t i = 0; i < sp.policies.size(); ++i)
        policyKindFromName(sp.policies[i], policy_kinds[i]);

    auto traces = HarvestTrace::standardSet(sp.traces);

    campaign::Options copts;
    copts.journalPath = opts.journalPath;
    copts.resume = opts.resume;
    copts.watchdogCycles = job.watchdogCycles;
    copts.watchdogRetries = job.watchdogRetries;
    copts.cancelFlag = opts.cancel;
    campaign::Campaign cam("nvmr_serve", job.configSpec(), copts);

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

    // Assembly stays on this (the service) thread, and the shared
    // cache means one decoded image set across every job.
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
                            sp.workloads[c.wl] + "/" +
                            sp.archs[c.ai] + "/" + sp.policies[c.pi] +
                            " exceeded " +
                            std::to_string(ctx.budgetCycles) +
                            " cycles on trace " + r.trace};
            return campaign::encodeRunResults(runs);
        });

    outcome.phase = endPhase(cam, opts);
    outcome.cellsResumed = cam.resumedCells();
    outcome.cellsQuarantined = cam.quarantined().size();
    outcome.journalDegraded = cam.journalDegraded();
    if (outcome.phase == JobPhase::Cancelled)
        return outcome; // the retry re-runs from the journal

    // Render the CSV exactly as nvmr_sweep prints it, then land it
    // atomically next to the manifest.
    std::string csv =
        "workload,arch,policy,capacitor_f,total_uj,forward_uj,"
        "overhead_uj,backup_uj,restore_uj,reclaim_uj,dead_uj,"
        "backups,violations,renames,reclaims,power_failures,"
        "nvm_writes,max_wear,completed,validated\n";
    ManifestWriter manifest("nvmr_serve");
    if (!cells.empty()) {
        SystemConfig cfg;
        cfg.capacitorFarads = cells[0].farads;
        manifest.setConfig(cfg);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cell_results[i].status != campaign::CellStatus::Done)
            continue;
        const Cell &c = cells[i];
        std::vector<RunResult> runs;
        if (!campaign::decodeRunResults(cell_results[i].payload,
                                        runs)) {
            outcome.failReason =
                "corrupt journal payload for sweep cell " +
                std::to_string(i);
            outcome.resultCode = kExitDegraded;
            return outcome;
        }
        Aggregate a = aggregate(runs);
        for (const RunResult &r : runs)
            manifest.addRun(r);
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
        csv += row;
    }

    int rc = kExitOk;
    std::string err;
    if (!atomicWriteFile(outPath(opts, job.name, ".csv"), csv, &err)) {
        warn("job ", job.name, ": cannot write CSV: ", err);
        rc = kExitDegraded;
    }
    manifest.addExtra("job", job.name);
    manifest.addExtra("cells", static_cast<double>(cells.size()));
    manifest.addExtra("traces_per_cell",
                      static_cast<double>(traces.size()));
    manifest.addExtra("result",
                      outcome.phase == JobPhase::Interrupted
                          ? "interrupted"
                          : (cam.quarantined().empty() ? "ok"
                                                       : "quarantined"));
    manifest.addExtraJson(
        "quarantine",
        cam.quarantineJson([&](const campaign::QuarantineEntry &q) {
            const Cell &c = cells[q.index];
            return sp.workloads[c.wl] + "/" + sp.archs[c.ai] + "/" +
                   sp.policies[c.pi];
        }));
    if (!manifest.tryWriteFile(outPath(opts, job.name, ".stats.json")))
        rc = kExitDegraded;
    outcome.resultCode =
        outcome.phase == JobPhase::Complete ? cam.exitCode(rc) : rc;
    return outcome;
}

JobOutcome
runFuzzJob(const JobSpec &job, const JobRunOptions &opts)
{
    JobOutcome outcome;
    const FuzzParams &fp = job.fuzz;

    campaign::Options copts;
    copts.journalPath = opts.journalPath;
    copts.resume = opts.resume;
    copts.watchdogCycles = job.watchdogCycles;
    copts.watchdogRetries = job.watchdogRetries;
    copts.cancelFlag = opts.cancel;
    campaign::Campaign cam("nvmr_serve", job.configSpec(), copts);

    ManifestWriter manifest("nvmr_serve");
    std::string log;
    uint64_t runs = 0;
    bool diverged = false;

    struct Pair
    {
        uint64_t seed;
        uint64_t caseIdx;
        size_t prog;
    };
    constexpr uint64_t kChunkProgs = 10;
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
            // Assembly stays on the service thread.
            for (uint64_t p = 0; p < chunk; ++p) {
                uint64_t seed = fp.baseSeed + i + p;
                texts[p] = makeRandomProgram(seed);
                progs[p] = assemble("fuzz" + std::to_string(seed),
                                    texts[p]);
            }
        }
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
            });
        for (size_t k = 0; k < pairs.size(); ++k) {
            const campaign::CellResult &res = results[k];
            if (res.status == campaign::CellStatus::Skipped ||
                res.status == campaign::CellStatus::Quarantined)
                continue;
            if (res.status == campaign::CellStatus::Failed) {
                const Pair &pr = pairs[k];
                const FuzzCase &c = fuzzCases()[pr.caseIdx - 1];
                manifest.addRun(outs[k].run);
                char line[256];
                std::snprintf(
                    line, sizeof(line),
                    "FAILURE: seed %llu on %s/%s at %g F\n"
                    "repro: nvmr_fuzz%s%s --one %llu %llu\n",
                    static_cast<unsigned long long>(pr.seed),
                    archKindName(c.arch), policyKindName(c.policy),
                    c.farads, fp.faults ? " --faults" : "",
                    fp.oracle ? " --oracle" : "",
                    static_cast<unsigned long long>(pr.seed),
                    static_cast<unsigned long long>(pr.caseIdx));
                log += line;
                if (!outs[k].checkText.empty())
                    log += outs[k].checkText;
                diverged = true;
                break;
            }
            ++runs;
        }
        if (!diverged) {
            uint64_t done = i + chunk;
            if (done % 10 == 0 && !cam.interrupted()) {
                char line[128];
                std::snprintf(
                    line, sizeof(line),
                    "%llu programs, %llu runs, all consistent\n",
                    static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(runs));
                log += line;
            }
        }
    }

    outcome.phase = endPhase(cam, opts);
    outcome.cellsResumed = cam.resumedCells();
    outcome.cellsQuarantined = cam.quarantined().size();
    outcome.journalDegraded = cam.journalDegraded();
    if (outcome.phase == JobPhase::Cancelled && !diverged)
        return outcome;

    const char *result = "no divergence";
    int rc = kExitOk;
    if (diverged) {
        outcome.failReason = "divergence";
        result = "divergence";
        rc = kExitMismatch;
        // A divergence is a final verdict even if the deadline also
        // fired; resumes reproduce it (failures are never journaled).
        outcome.phase = JobPhase::Complete;
    } else if (outcome.phase == JobPhase::Interrupted) {
        char line[96];
        std::snprintf(line, sizeof(line),
                      "interrupted: %llu clean runs checkpointed\n",
                      static_cast<unsigned long long>(runs));
        log += line;
        result = "interrupted";
    } else {
        if (!cam.quarantined().empty())
            result = "quarantined";
        char line[96];
        std::snprintf(line, sizeof(line),
                      "fuzzing done: %llu runs, no divergence\n",
                      static_cast<unsigned long long>(runs));
        log += line;
    }

    std::string err;
    if (!atomicWriteFile(outPath(opts, job.name, ".out"), log, &err)) {
        warn("job ", job.name, ": cannot write log: ", err);
        rc = rc == kExitOk ? kExitDegraded : rc;
    }
    manifest.addExtra("job", job.name);
    manifest.addExtra("iterations",
                      static_cast<double>(fp.iterations));
    manifest.addExtra("base_seed", static_cast<double>(fp.baseSeed));
    manifest.addExtra("faults_mode", fp.faults ? 1.0 : 0.0);
    manifest.addExtra("oracle_mode", fp.oracle ? 1.0 : 0.0);
    manifest.addExtra("runs", static_cast<double>(runs));
    manifest.addExtra("result", result);
    manifest.addExtraJson("quarantine", cam.quarantineJson());
    if (!manifest.tryWriteFile(outPath(opts, job.name, ".stats.json")))
        rc = rc == kExitOk ? kExitDegraded : rc;
    outcome.resultCode =
        outcome.phase == JobPhase::Complete ? cam.exitCode(rc) : rc;
    return outcome;
}

} // namespace

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
    if (job.type == JobType::Fuzz)
        return runFuzzJob(job, opts);
    return runSweepJob(job, opts, programs);
}

} // namespace nvmr::serve
