/**
 * @file
 * The crashtest campaign (serve/runner.hh): crash exploration in two
 * campaign-wide stages. Each crash run forks from the latest snapshot
 * preceding its crash point instead of re-executing the whole prefix,
 * turning the exploration from O(points x trace) into
 * O(trace + points x window). The census stops capturing once it has
 * passed the explored backup windows, so it keeps only snapshots some
 * point can fork from. Forked runs are byte-identical to from-scratch
 * runs (--verify-fork and the snapshot-equivalence ctest enforce
 * this), so findings and point outcomes are unchanged by forking.
 */

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "common/bytes.hh"
#include "common/exitcodes.hh"
#include "common/xorshift.hh"
#include "obs/json.hh"
#include "par/par.hh"
#include "serve/detail.hh"
#include "serve/runner.hh"
#include "sim/simulator.hh"

namespace nvmr::serve
{

namespace
{

using detail::cancelSet;
using detail::format;

/** The system every crash run simulates: the default system with
 *  small NvMR structures (more metadata traffic per backup, so the
 *  crash points cover map-table and free-list updates). */
SystemConfig
crashConfig()
{
    SystemConfig cfg;
    cfg.mapTableEntries = 64;
    cfg.mtCacheEntries = 16;
    cfg.mtCacheWays = 4;
    cfg.reclaimEnabled = true;
    return cfg;
}

/** What every crash run shares, built once per campaign and read
 *  concurrently by the workers: the system, a watchdog policy spec
 *  (backups at a steady cadence), the harvest trace, and the job's
 *  engine and cancel flag. Each run builds its own policy from the
 *  spec, since policies carry run state. */
struct CrashPlatform
{
    SystemConfig cfg = crashConfig();
    PolicySpec policy{PolicyKind::Watchdog, 4000};
    HarvestTrace trace{TraceKind::Rf, 7, 8.0};
    EngineKind engine = EngineKind::Default;
    const std::atomic<bool> *cancel = nullptr;

    RunOptions
    runOptions(uint64_t budget_cycles) const
    {
        RunOptions opts;
        opts.validate = false;
        opts.engine = engine;
        opts.cancel = cancel;
        if (budget_cycles)
            opts.maxCycles = budget_cycles;
        return opts;
    }
};

/** The census run: fault layer on, nothing armed. Records the
 *  persist-boundary window of every backup and captures the fork
 *  snapshots into `sink` (a sink never charges energy or cycles, so
 *  the census is unchanged by it). */
CensusResult
runCensus(const CrashPlatform &plat, const Program &prog, ArchKind arch,
          const GoldenResult &golden, SnapshotSink &sink,
          uint64_t budget_cycles, const std::string &tag)
{
    RunOptions opts = plat.runOptions(budget_cycles);
    opts.faults.enabled = true;
    opts.snapshots = &sink;
    auto policy = makePolicy(plat.policy);
    Simulator sim(prog, arch, plat.cfg, *policy, plat.trace, opts);
    RunResult r = sim.run();
    if (cancelSet(plat.cancel))
        throw campaign::CellCancelled{};
    if (budget_cycles && !r.completed)
        throw campaign::CellTimeout{tag + " census exceeded " +
                                    std::to_string(budget_cycles) +
                                    " cycles"};
    CensusResult c;
    c.completed = r.completed && sim.validateAgainstGolden(golden);
    c.totalCycles = r.totalCycles;
    c.windows = sim.faultInjector().backupWindows();
    return c;
}

RunResult
runOnce(const CrashPlatform &plat, const Program &prog, ArchKind arch,
        const FaultConfig &faults, const GoldenResult &golden,
        bool *matched, uint64_t budget_cycles = 0,
        const MachineSnapshot *from = nullptr,
        CowStore::PageTable *image_out = nullptr)
{
    RunOptions opts = plat.runOptions(budget_cycles);
    opts.faults = faults;
    opts.resumeFrom = from;
    auto policy = makePolicy(plat.policy);
    Simulator sim(prog, arch, plat.cfg, *policy, plat.trace, opts);
    RunResult r = sim.run();
    *matched = r.completed && sim.validateAgainstGolden(golden);
    if (image_out)
        *image_out = sim.nvmRef().store().pageTable();
    return r;
}

/** One crash case: either a persist boundary or a raw cycle. */
struct CrashPoint
{
    uint64_t persist = 0; ///< 1-based persist boundary, 0 = unused
    uint64_t cycle = 0;   ///< absolute cycle, 0 = unused
};

/** Crash-point list of one combination: every (strided) persist
 *  boundary of the first maxBackups backups, plus sampled raw
 *  cycles. Derived deterministically from the census, so a resume
 *  regenerates the identical list. */
std::vector<CrashPoint>
crashPoints(const CensusResult &census, ArchKind arch,
            const CrashtestParams &cp)
{
    std::vector<CrashPoint> points;
    uint64_t nwin =
        std::min<uint64_t>(census.windows.size(), cp.maxBackups);
    for (uint64_t i = 0; i < nwin; ++i) {
        for (uint64_t p = census.windows[i].firstPersist;
             p <= census.windows[i].lastPersist; p += cp.stride)
            points.push_back(CrashPoint{p, 0});
    }
    XorShift rng(cp.seed + static_cast<uint64_t>(arch) * 131);
    for (uint64_t i = 0; i < cp.cycleSamples; ++i) {
        uint64_t c = 1 + rng.next() % (census.totalCycles + 1);
        points.push_back(CrashPoint{0, c});
    }
    return points;
}

/** Snapshot capture for one combination's census. Every persist
 *  point lies in the first maxBackups backup windows, so capture
 *  stops once the census has passed them; cycle samples beyond fork
 *  from the latest snapshot kept. */
CollectingSnapshotSink
forkSink(const CrashtestParams &cp)
{
    return CollectingSnapshotSink(cp.snapStride, cp.maxBackups);
}

/** The fault layer of one crash run: on, with the point armed. */
FaultConfig
crashFaults(const CrashPoint &cp)
{
    FaultConfig faults;
    faults.enabled = true;
    faults.crashAtPersist = cp.persist;
    faults.crashAtCycle = cp.cycle;
    return faults;
}

/** The snapshot a run armed with `faults` forks from (forkSource);
 *  null -> run from scratch. */
const MachineSnapshot *
forkFrom(const std::vector<SnapshotPtr> &snaps, const FaultConfig &faults)
{
    ptrdiff_t i = forkSource(snaps, faults);
    return i < 0 ? nullptr : snaps[i].get();
}

/** A census cell's journal payload: the census plus the capture
 *  summary the manifest reports, so a resumed campaign reports it
 *  without capturing again. */
struct CensusCell
{
    CensusResult census;
    uint64_t snapshots = 0; ///< snapshots the census kept
    uint64_t forked = 0;    ///< crash points with a snapshot to fork
};

std::string
encodeCensusCell(const CensusCell &c)
{
    ByteWriter w;
    w.str(campaign::encodeCensus(c.census));
    w.u64(c.snapshots);
    w.u64(c.forked);
    return w.take();
}

bool
decodeCensusCell(const std::string &bytes, CensusCell &c)
{
    ByteReader r(bytes);
    std::string census = r.str();
    c.snapshots = r.u64();
    c.forked = r.u64();
    return r.ok() && r.atEnd() &&
           campaign::decodeCensus(census, c.census);
}

struct ComboReport
{
    uint64_t points = 0;
    uint64_t crashed = 0; ///< runs where the armed crash actually fired
    uint64_t divergent = 0;
    uint64_t stuck = 0;
    uint64_t forkVerified = 0;  ///< --verify-fork cross-checks run
    uint64_t forkDivergent = 0; ///< forks not bit-identical to scratch
};

/** One workload x arch combination across both campaign stages. */
struct Combo
{
    size_t workload = 0; ///< index into CrashtestParams::workloads
    ArchKind arch = ArchKind::Nvmr;
    std::string tag; ///< "workload/arch", for messages
    CensusCell census;
    std::vector<CrashPoint> points;
    uint64_t firstPoint = 0; ///< global points-stage index of points[0]
    std::vector<SnapshotPtr> snaps; ///< fork sources, capture order
};

std::string
pointText(const CrashPoint &cp)
{
    return format("%s %llu", cp.persist ? "persist" : "cycle",
                  static_cast<unsigned long long>(
                      cp.persist ? cp.persist : cp.cycle));
}

/** --verify-fork: re-run the first N forkable points of the combo
 *  from scratch and require run-stat and final-NVM-image
 *  bit-identity with the fork. Stops at an interrupt or a cancel. */
void
verifyForks(const campaign::Campaign &cam, const CrashPlatform &plat,
            const Program &prog, const GoldenResult &golden,
            const Combo &cb, const CrashtestParams &cp,
            ComboReport &report, CampaignRun &run)
{
    for (size_t idx = 0; idx < cb.points.size() &&
                         report.forkVerified < cp.verifyFork &&
                         !cam.interrupted() && !cancelSet(plat.cancel);
         ++idx) {
        FaultConfig faults = crashFaults(cb.points[idx]);
        const MachineSnapshot *from = forkFrom(cb.snaps, faults);
        if (!from)
            continue; // point precedes the first snapshot
        bool m_fork = false, m_scratch = false;
        CowStore::PageTable img_fork, img_scratch;
        RunResult r_fork = runOnce(plat, prog, cb.arch, faults, golden,
                                   &m_fork, 0, from, &img_fork);
        RunResult r_scratch = runOnce(plat, prog, cb.arch, faults,
                                      golden, &m_scratch, 0, nullptr,
                                      &img_scratch);
        if (cancelSet(plat.cancel))
            return; // a cancelled pair proves nothing
        ++report.forkVerified;
        if (campaign::encodeRunResult(r_fork) ==
                campaign::encodeRunResult(r_scratch) &&
            m_fork == m_scratch &&
            samePageContents(img_fork, img_scratch))
            continue;
        ++report.forkDivergent;
        const char *w = cp.workloads[cb.workload].c_str();
        const char *a = archKindName(cb.arch);
        run.emit(format("FAILURE: %s fork diverged from scratch at %s\n"
                        "repro: nvmr_crashtest -w %s -a %s "
                        "--max-backups %llu --stride %llu --cycle-samples "
                        "%llu --seed %llu --snap-stride %llu "
                        "--verify-fork %llu\n",
                        cb.tag.c_str(), pointText(cb.points[idx]).c_str(),
                        w, a,
                        static_cast<unsigned long long>(cp.maxBackups),
                        static_cast<unsigned long long>(cp.stride),
                        static_cast<unsigned long long>(cp.cycleSamples),
                        static_cast<unsigned long long>(cp.seed),
                        static_cast<unsigned long long>(cp.snapStride),
                        static_cast<unsigned long long>(idx + 1)));
    }
}

/** Tally a combo's point outcomes (1-byte flags: crashed / completed
 *  / matched) in point order, reporting each failure. */
void
tallyPoints(const std::vector<campaign::CellResult> &results,
            const Combo &cb, ComboReport &report, CampaignRun &run)
{
    for (size_t idx = 0; idx < cb.points.size(); ++idx) {
        const campaign::CellResult &res = results[cb.firstPoint + idx];
        if (res.status == campaign::CellStatus::Quarantined)
            continue; // reported via the quarantine list
        char flags = res.payload.empty() ? 0 : res.payload[0];
        if (flags & 1)
            ++report.crashed;
        const char *verdict = nullptr;
        if (!(flags & 2)) {
            ++report.stuck;
            verdict = "stuck";
        } else if (!(flags & 4)) {
            ++report.divergent;
            verdict = "diverged";
        }
        if (verdict)
            run.emit(format("FAILURE: %s %s with crash at %s\n",
                            cb.tag.c_str(), verdict,
                            pointText(cb.points[idx]).c_str()));
    }
}

} // namespace

CampaignRun
runCrashtestCampaign(const JobSpec &job, const std::string &tool,
                     const JobRunOptions &opts, ProgramCache &programs,
                     const LineSink &sink)
{
    CampaignRun run(tool, sink);
    const CrashtestParams &cp = job.crashtest;
    campaign::Campaign cam(tool, job.configSpec(),
                           detail::campaignOptions(job, opts));
    auto fail = [&](const std::string &reason) {
        detail::endCampaign(run, cam, opts);
        run.outcome.failReason = reason;
        run.outcome.resultCode = kExitDegraded;
        return std::move(run);
    };

    // Combinations in canonical (workload, arch) order: the census
    // stage's cell index, and the order of every report line. Names
    // were validated by checkJob; the lookups cannot fail.
    std::vector<Combo> combos;
    for (size_t w = 0; w < cp.workloads.size(); ++w)
        for (const std::string &name : cp.archs) {
            Combo cb;
            cb.workload = w;
            archKindFromName(name, cb.arch);
            cb.tag = cp.workloads[w] + "/" + name;
            combos.push_back(std::move(cb));
        }

    // Programs and golden runs are prepared once per workload, on
    // this thread, and only when some cell of the workload still has
    // to execute (a fully journaled campaign simulates nothing).
    // Workers then share them read-only.
    CrashPlatform plat;
    plat.engine = job.engine;
    plat.cancel = opts.cancel;
    std::vector<const Program *> progs(cp.workloads.size(), nullptr);
    std::vector<std::shared_ptr<const GoldenResult>> goldens(
        cp.workloads.size());
    auto prepare = [&](size_t w) {
        if (!goldens[w]) {
            progs[w] = &programs.get(cp.workloads[w]);
            goldens[w] = goldenRun(*progs[w]);
        }
        return goldens[w]->halted;
    };

    // Stage 1, every census: one cell per combination. A census that
    // cannot complete cleanly is a finding like any other, so it IS
    // journaled (completed=false) and its combination fails without
    // aborting the campaign.
    for (size_t c = 0; c < combos.size(); ++c)
        if (!cam.cellDone("census", c) && !prepare(combos[c].workload))
            return fail("golden run of " +
                        cp.workloads[combos[c].workload] +
                        " did not halt");
    auto census_cells = cam.runStage(
        "census", combos.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            Combo &cb = combos[ctx.index];
            CollectingSnapshotSink snap_sink = forkSink(cp);
            CensusCell cell;
            cell.census = runCensus(plat, *progs[cb.workload], cb.arch,
                                    *goldens[cb.workload], snap_sink,
                                    ctx.budgetCycles, cb.tag);
            cell.snapshots = snap_sink.snapshots.size();
            if (cell.census.completed)
                for (const CrashPoint &pt :
                     crashPoints(cell.census, cb.arch, cp))
                    cell.forked +=
                        forkSource(snap_sink.snapshots,
                                   crashFaults(pt)) >= 0;
            cb.snaps = std::move(snap_sink.snapshots);
            return encodeCensusCell(cell);
        });

    // Lay every combination's crash points out in one index space.
    std::vector<size_t> owner; // points-stage index -> combination
    bool want_verify = cp.verifyFork > 0;
    std::vector<size_t> recapture;
    for (size_t c = 0; c < combos.size(); ++c) {
        Combo &cb = combos[c];
        if (census_cells[c].status != campaign::CellStatus::Done)
            continue; // interrupted / reported via quarantine list
        if (!decodeCensusCell(census_cells[c].payload, cb.census))
            return fail("corrupt journal payload for " + cb.tag +
                        " census");
        if (!cb.census.census.completed)
            continue;
        cb.points = crashPoints(cb.census.census, cb.arch, cp);
        cb.firstPoint = owner.size();
        owner.resize(owner.size() + cb.points.size(), c);

        bool any_fresh = false;
        for (uint64_t i = cb.firstPoint; i < owner.size() && !any_fresh;
             ++i)
            any_fresh = !cam.cellDone("points", i);
        if (!any_fresh && !want_verify)
            continue;
        if (!prepare(cb.workload))
            return fail("golden run of " + cp.workloads[cb.workload] +
                        " did not halt");
        // A census served from the journal captured nothing in this
        // process: re-derive its snapshots (below) with the same
        // bounded sink.
        if (census_cells[c].fromJournal)
            recapture.push_back(c);
    }
    std::vector<char> recaptured(recapture.size(), 0);
    par::parallelFor(recapture.size(), [&](size_t k) {
        Combo &cb = combos[recapture[k]];
        CollectingSnapshotSink snap_sink = forkSink(cp);
        try {
            recaptured[k] = runCensus(plat, *progs[cb.workload], cb.arch,
                                      *goldens[cb.workload], snap_sink, 0,
                                      cb.tag)
                                .completed;
        } catch (const campaign::CellCancelled &) {
            return; // the cancel check below ends the attempt
        }
        cb.snaps = std::move(snap_sink.snapshots);
    });
    if (cancelSet(opts.cancel)) {
        detail::endCampaign(run, cam, opts);
        return run; // the retry re-runs from the journal
    }
    for (size_t k = 0; k < recapture.size(); ++k)
        if (!recaptured[k])
            return fail("reference run of " + combos[recapture[k]].tag +
                        " did not complete, but its journaled census "
                        "did");

    // Stage 2, every crash point of every combination. Each point
    // forks from the latest snapshot preceding it (snapshots are
    // immutable and COW-shared, so concurrent forks are safe) and
    // journals a 1-byte outcome (crashed/completed/matched flags) --
    // byte-identical to what a from-scratch run journals.
    auto results = cam.runStage(
        "points", owner.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            const Combo &cb = combos[owner[ctx.index]];
            uint64_t local = ctx.index - cb.firstPoint;
            FaultConfig faults = crashFaults(cb.points[local]);
            bool matched = false;
            RunResult r = runOnce(plat, *progs[cb.workload], cb.arch,
                                  faults, *goldens[cb.workload], &matched,
                                  ctx.budgetCycles,
                                  forkFrom(cb.snaps, faults));
            if (cancelSet(ctx.cancel))
                throw campaign::CellCancelled{};
            if (ctx.budgetCycles && !r.completed)
                throw campaign::CellTimeout{
                    cb.tag + " point " + std::to_string(local) +
                    " exceeded " + std::to_string(ctx.budgetCycles) +
                    " cycles"};
            char flags =
                static_cast<char>((r.injectedCrashes > 0 ? 1 : 0) |
                                  (r.completed ? 2 : 0) |
                                  (matched ? 4 : 0));
            return std::string(1, flags);
        });

    // Verification and every report line on this thread, one
    // combination at a time in canonical order, so the output is the
    // same whatever the worker count or the stage layout. An
    // interrupted campaign reports the combinations before the first
    // one with a skipped cell.
    uint64_t total_points = 0;
    uint64_t total_crashed = 0;
    bool ok = true;
    JsonWriter combo_json;
    combo_json.beginArray();
    for (size_t c = 0; c < combos.size(); ++c) {
        Combo &cb = combos[c];
        bool skipped =
            census_cells[c].status == campaign::CellStatus::Skipped;
        for (size_t i = 0; i < cb.points.size() && !skipped; ++i)
            skipped = results[cb.firstPoint + i].status ==
                      campaign::CellStatus::Skipped;
        if (skipped)
            break;
        const char *w = cp.workloads[cb.workload].c_str();
        ComboReport report;
        report.points = cb.points.size();
        bool combo_ok = true;
        if (census_cells[c].status == campaign::CellStatus::Done &&
            !cb.census.census.completed) {
            run.emit(format("FAILURE: %s census run did not complete "
                            "cleanly\n",
                            cb.tag.c_str()));
            combo_ok = false;
        }
        if (want_verify && !cb.snaps.empty())
            verifyForks(cam, plat, *progs[cb.workload], *goldens[cb.workload],
                        cb, cp, report, run);
        if (cam.interrupted() || cancelSet(opts.cancel))
            break;
        tallyPoints(results, cb, report, run);
        combo_ok = combo_ok && report.divergent == 0 &&
                   report.stuck == 0 && report.forkDivergent == 0;
        cb.snaps.clear();

        total_points += report.points;
        total_crashed += report.crashed;
        combo_json.beginObject();
        combo_json.kv("workload", cp.workloads[cb.workload]);
        combo_json.kv("arch", archKindName(cb.arch));
        combo_json.kv("points", report.points);
        combo_json.kv("crashed", report.crashed);
        combo_json.kv("divergent", report.divergent);
        combo_json.kv("stuck", report.stuck);
        combo_json.kv("fork_verified", report.forkVerified);
        combo_json.kv("fork_divergent", report.forkDivergent);
        combo_json.kv("snapshots", cb.census.snapshots);
        combo_json.kv("forked", cb.census.forked);
        combo_json.kv("ok", combo_ok);
        combo_json.endObject();
        if (cp.verbose || !combo_ok)
            run.emit(format("%-14s %-14s %6llu points, %6llu crashed, "
                            "%llu divergent, %llu stuck%s\n",
                            w, archKindName(cb.arch),
                            static_cast<unsigned long long>(report.points),
                            static_cast<unsigned long long>(report.crashed),
                            static_cast<unsigned long long>(
                                report.divergent),
                            static_cast<unsigned long long>(report.stuck),
                            combo_ok ? "" : "  <-- FAIL"));
        ok = ok && combo_ok;
    }
    combo_json.endArray();

    detail::endCampaign(run, cam, opts);
    if (run.outcome.phase == JobPhase::Cancelled)
        return run; // the retry re-runs from the journal

    if (cam.interrupted())
        run.emit(format("interrupted: progress checkpointed%s\n",
                        opts.journalPath.empty() ? " (no --journal)" : ""));
    else
        run.emit(format("crashtest %s: %llu crash points (%llu fired), "
                        "%llu workloads x %llu archs\n",
                        ok ? "passed" : "FAILED",
                        static_cast<unsigned long long>(total_points),
                        static_cast<unsigned long long>(total_crashed),
                        static_cast<unsigned long long>(
                            cp.workloads.size()),
                        static_cast<unsigned long long>(cp.archs.size())));
    detail::warnQuarantined(cam);
    run.rendered = true;

    run.manifest.setConfig(crashConfig());
    if (!job.name.empty())
        run.manifest.addExtra("job", job.name);
    run.manifest.addExtra("crash_points",
                          static_cast<double>(total_points));
    run.manifest.addExtra("crashes_fired",
                          static_cast<double>(total_crashed));
    run.manifest.addExtra("result", cam.interrupted() ? "interrupted"
                                    : ok              ? "passed"
                                                      : "failed");
    run.manifest.addExtraJson("combos", combo_json.str());
    run.manifest.addExtraJson("quarantine", cam.quarantineJson());
    if (!ok)
        run.outcome.failReason = "divergence";
    run.outcome.resultCode = cam.exitCode(ok ? kExitOk : kExitMismatch);
    return run;
}

} // namespace nvmr::serve
