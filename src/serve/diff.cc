/**
 * @file
 * The diff campaign (serve/runner.hh): prove every architecture
 * recovers a correct final state under hostile power schedules. Per
 * architecture and base platform, a census of where backups commit
 * aims adversarial crash schedules at those instants (plus brownout
 * storms and window-coverage random schedules); every schedule runs
 * under the lockstep invariant checker and its recovered final state
 * is diffed word by word against the golden reference interpreter.
 */

#include <algorithm>
#include <optional>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "check/runner.hh"
#include "check/schedule.hh"
#include "common/exitcodes.hh"
#include "isa/assembler.hh"
#include "par/par.hh"
#include "serve/detail.hh"
#include "serve/runner.hh"
#include "sim/randprog.hh"

namespace nvmr::serve
{

namespace
{

using detail::cancelSet;
using detail::format;

struct BaseConfig
{
    PolicyKind policy;
    double farads;
    bool byteLbf = false;
};

/** Per-architecture base platforms (mirrors the fuzzer's grid; the
 *  ideal baseline is only safe under perfect JIT). */
std::vector<BaseConfig>
baseConfigs(ArchKind arch)
{
    if (arch == ArchKind::Ideal)
        return {{PolicyKind::Jit, 0.1}};
    std::vector<BaseConfig> out = {
        {PolicyKind::Jit, 0.1},
        {PolicyKind::Watchdog, 500e-6},
    };
    if (arch == ArchKind::Clank || arch == ArchKind::Nvmr)
        out.push_back({PolicyKind::Watchdog, 500e-6, true});
    return out;
}

CheckCase
makeBaseCase(ArchKind arch, const BaseConfig &bc, uint64_t seed,
             InjectedBug bug)
{
    CheckCase c;
    c.name = std::string(archKindName(arch)) + "-s" +
             std::to_string(seed);
    c.arch = arch;
    c.policy = bc.policy;
    c.farads = bc.farads;
    c.byteLbf = bc.byteLbf;
    c.injectedBug = bug;
    c.traceSeed = 40000 + seed;
    c.programText = makeRandomProgram(seed);
    c.programSeed = seed;
    return c;
}

/** `c` with a cell's budget and cancel flag and the job's engine
 *  threaded in. */
CheckCase
cellCase(CheckCase c, const campaign::CellContext &ctx, EngineKind engine)
{
    if (ctx.budgetCycles)
        c.maxCycles = ctx.budgetCycles;
    c.cancel = ctx.cancel;
    c.engine = engine;
    return c;
}

/** One diff campaign in progress. */
struct DiffRun
{
    campaign::Campaign &cam;
    const JobSpec &job;
    CampaignRun &run;
    uint64_t runs = 0;
    uint64_t failures = 0;

    /** Run every adversarial schedule of one base case; false on a
     *  failure (reported, and the failing case kept). */
    bool runBase(const std::string &tag, const CheckCase &base,
                 uint32_t budget, uint64_t gen_seed);
};

bool
DiffRun::runBase(const std::string &tag, const CheckCase &base,
                 uint32_t budget, uint64_t gen_seed)
{
    // The census is one journaled cell of its own, so a resumed
    // campaign regenerates the schedule list from the journal instead
    // of re-running the mapping pass. A census that cannot complete
    // is a campaign-level failure (never journaled); under a watchdog
    // budget it is retried and quarantined like any other cell.
    auto census_cells = cam.runStage(
        tag + "/census", 1,
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            CensusResult r = runCensus(cellCase(base, ctx, job.engine));
            if (cancelSet(ctx.cancel))
                throw campaign::CellCancelled{};
            if (ctx.budgetCycles && !r.completed)
                throw campaign::CellTimeout{
                    base.name + " census exceeded " +
                    std::to_string(ctx.budgetCycles) + " cycles"};
            if (!r.completed)
                return std::nullopt;
            return campaign::encodeCensus(r);
        });
    if (census_cells[0].status == campaign::CellStatus::Skipped ||
        census_cells[0].status == campaign::CellStatus::Quarantined)
        return true; // interrupted / reported via quarantine list
    if (census_cells[0].status != campaign::CellStatus::Done) {
        run.emit(format("census run of %s did not complete; treating as "
                        "failure\n",
                        base.name.c_str()));
        ++failures;
        return false;
    }
    CensusResult census;
    if (!campaign::decodeCensus(census_cells[0].payload, census)) {
        run.outcome.failReason =
            "corrupt journal payload for " + tag + " census";
        return false;
    }

    ScheduleGenParams params;
    params.budget = budget;
    params.seed = gen_seed;
    std::vector<CheckCase> schedules =
        makeAdversarialSchedules(base, census, params);

    // Precompute the shared read-only oracle only when a schedule
    // still has to run (a fully-journaled base skips it entirely).
    std::string sched_stage = tag + "/sched";
    bool any_fresh = false;
    for (size_t i = 0; i < schedules.size() && !any_fresh; ++i)
        any_fresh = !cam.cellDone(sched_stage, i);
    OracleResult oracle;
    if (any_fresh)
        oracle = runOracle(assemble(base.name, base.programText));

    // Failure detail rides in this side table; clean cells journal an
    // "ok" marker, failures are never journaled so a resume re-runs
    // and reproduces them. Outcomes are scanned in schedule order so
    // the failure reported (and the run count at that point) is the
    // one a serial campaign would have hit first.
    std::vector<CheckOutcome> outs(schedules.size());
    par::Progress progress("diff:" + base.name, schedules.size());
    auto results = cam.runStage(
        sched_stage, schedules.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            CheckOutcome out = runChecked(
                cellCase(schedules[ctx.index], ctx, job.engine), &oracle);
            if (cancelSet(ctx.cancel))
                throw campaign::CellCancelled{};
            if (ctx.budgetCycles && !out.clean() &&
                !out.run.completed)
                throw campaign::CellTimeout{
                    base.name + " schedule " +
                    std::to_string(ctx.index) + " exceeded " +
                    std::to_string(ctx.budgetCycles) + " cycles"};
            if (!out.clean()) {
                outs[ctx.index] = std::move(out);
                return std::nullopt;
            }
            return std::string("ok");
        },
        &progress);
    progress.finish();
    for (size_t i = 0; i < results.size(); ++i) {
        switch (results[i].status) {
          case campaign::CellStatus::Done:
            ++runs;
            break;
          case campaign::CellStatus::Quarantined:
            break; // reported at the end of the campaign
          case campaign::CellStatus::Skipped:
            return true; // interrupted; caller checks
          case campaign::CellStatus::Failed: {
            ++runs;
            ++failures;
            const CheckCase &c = schedules[i];
            run.emit(format("\nFAILURE: %s on %s/%s at %g F: %s\n",
                            c.name.c_str(), archKindName(c.arch),
                            policyKindName(c.policy), c.farads,
                            outs[i].describe().c_str()));
            run.emit(outs[i].detail());
            run.failingCase = c;
            return false;
          }
        }
    }
    return true;
}

} // namespace

CampaignRun
runDiffCampaign(const JobSpec &job, const std::string &tool,
                const JobRunOptions &opts, const LineSink &sink)
{
    CampaignRun run(tool, sink);
    const DiffParams &dp = job.diff;
    campaign::Campaign cam(tool, job.configSpec(),
                           detail::campaignOptions(job, opts));
    DiffRun diff{cam, job, run};
    auto stopped = [&] {
        return cam.interrupted() || cancelSet(opts.cancel);
    };

    const uint32_t per_arch =
        static_cast<uint32_t>(dp.smoke ? 1 : dp.schedules);
    bool clean = true;
    for (const std::string &name : dp.archs) {
        if (stopped())
            break;
        ArchKind arch = ArchKind::Nvmr;
        archKindFromName(name, arch); // validated by checkJob
        auto bases = baseConfigs(arch);
        if (dp.smoke)
            bases.resize(1);
        uint32_t per_base = std::max<uint32_t>(
            1, per_arch / static_cast<uint32_t>(bases.size()));
        uint64_t arch_runs_before = diff.runs;
        for (size_t bi = 0; bi < bases.size() && clean && !stopped();
             ++bi) {
            // Give the last base config the budget remainder so the
            // per-architecture total meets the request exactly.
            uint32_t budget = per_base;
            if (bi + 1 == bases.size() &&
                per_base * bases.size() < per_arch)
                budget = per_arch -
                         per_base * (static_cast<uint32_t>(
                                         bases.size()) -
                                     1);
            CheckCase base = makeBaseCase(arch, bases[bi], dp.seed,
                                          dp.bug);
            std::string tag = name + "-b" + std::to_string(bi);
            clean &= diff.runBase(tag, base, budget, dp.seed * 31 + bi);
        }
        if (!run.outcome.failReason.empty()) {
            // A corrupt journal payload: nothing to publish.
            detail::endCampaign(run, cam, opts);
            run.outcome.resultCode = kExitDegraded;
            return run;
        }
        if (cam.interrupted() || (clean && stopped()))
            break;
        run.emit(format("%s: %llu schedules, %s\n", name.c_str(),
                        static_cast<unsigned long long>(
                            diff.runs - arch_runs_before),
                        clean ? "all clean" : "FAILED"));
        if (!clean)
            break;
    }

    detail::endCampaign(run, cam, opts);
    if (run.outcome.phase == JobPhase::Cancelled && clean)
        return run; // the retry re-runs from the journal
    if (!clean) {
        // A failure is a final verdict even if the deadline also
        // fired; resumes reproduce it (failures are never journaled).
        run.outcome.phase = JobPhase::Complete;
        run.outcome.failReason = "divergence";
    }

    if (cam.interrupted())
        run.emit(format("interrupted: %llu checked runs checkpointed\n",
                        static_cast<unsigned long long>(diff.runs)));
    else if (clean)
        run.emit(format("campaign done: %llu checked runs, zero "
                        "divergences, zero invariant violations\n",
                        static_cast<unsigned long long>(diff.runs)));
    detail::warnQuarantined(cam);
    run.rendered = true;

    if (!job.name.empty())
        run.manifest.addExtra("job", job.name);
    run.manifest.addExtra("runs", static_cast<double>(diff.runs));
    run.manifest.addExtra("failures", static_cast<double>(diff.failures));
    run.manifest.addExtra("result", cam.interrupted() ? "interrupted"
                                    : clean           ? "clean"
                                                      : "divergence");
    run.manifest.addExtraJson("quarantine", cam.quarantineJson());
    run.outcome.resultCode =
        cam.exitCode(clean ? kExitOk : kExitMismatch);
    return run;
}

} // namespace nvmr::serve
