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
 * Each crash run forks from the latest snapshot preceding its crash
 * point instead of re-executing the whole prefix, turning the sweep
 * from O(points x trace) into O(trace + points x window). Forked
 * runs are byte-identical to from-scratch runs (--verify-fork and
 * the snapshot-equivalence ctest enforce this), so findings,
 * journals, and manifests are unchanged by the optimization.
 *
 *     nvmr_crashtest                       # full sweep, 50 backups
 *     nvmr_crashtest --smoke               # <30 s fixed-seed subset
 *     nvmr_crashtest -w hist,qsort -a nvmr --max-backups 10
 *     nvmr_crashtest --stride 4 --jobs 8   # --threads is an alias
 *     nvmr_crashtest --verify-fork 5       # cross-check 5 forks/combo
 *     nvmr_crashtest --no-fork             # legacy from-scratch runs
 *     nvmr_crashtest --journal c.jrn       # checkpoint; --resume
 *
 * The (workload, arch) census and crash-point cells run through the
 * campaign layer (docs/operations.md). Unlike the fuzzer, point
 * failures ARE journaled -- a stuck or divergent crash point is a
 * finding, the sweep keeps going and reports it in the summary -- so
 * a resumed sweep replays recorded findings instead of re-running
 * their cells.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/sig.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "common/xorshift.hh"
#include "obs/json.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

struct Options
{
    std::vector<std::string> workloads;
    std::vector<ArchKind> archs = {ArchKind::Nvmr, ArchKind::Clank,
                                   ArchKind::Hoop, ArchKind::Task};
    uint64_t maxBackups = 50;
    uint64_t stride = 1;       ///< take every Nth persist boundary
    uint64_t cycleSamples = 8; ///< random mid-execution crash cycles
    uint64_t seed = 1;
    uint64_t snapStride = 4;   ///< snapshot every Nth safe point
    uint64_t verifyFork = 0;   ///< cross-check N forked runs / combo
    bool noFork = false;       ///< from-scratch runs (A/B, benches)
    unsigned jobs = 0; ///< 0 = engine default (NVMR_JOBS / cores)
    bool verbose = false;
    std::string statsJsonPath;
};

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
        "(default 4)\n"
        "  --verify-fork N       re-run N forked points per combo "
        "from\n"
        "                        scratch and require bit-identity\n"
        "  --no-fork             explore from scratch (A/B "
        "comparison)\n"
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

ArchKind
parseArch(const std::string &name)
{
    ArchKind kind = cli::parseArchKind(name);
    if (kind == ArchKind::Ideal)
        fatal("the ideal architecture relies on the perfect-JIT "
              "assumption that power never fails unexpectedly; "
              "injected crashes break it by construction");
    return kind;
}

std::vector<std::string>
splitList(const char *arg)
{
    std::vector<std::string> out;
    std::string cur;
    for (const char *p = arg; *p; ++p) {
        if (*p == ',') {
            if (!cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur += *p;
        }
    }
    if (!cur.empty())
        out.push_back(cur);
    return out;
}

/** The platform every crash run uses: the default system with small
 *  NvMR structures (more metadata traffic per backup, so the crash
 *  points cover map-table and free-list updates) and a watchdog
 *  policy so backups come at a steady cadence. */
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

RunResult
runOnce(const Program &prog, ArchKind arch, const FaultConfig &faults,
        const GoldenResult &golden, bool *matched,
        uint64_t budget_cycles = 0,
        const MachineSnapshot *from = nullptr,
        std::vector<uint8_t> *image_out = nullptr)
{
    SystemConfig cfg = crashConfig();
    PolicySpec spec;
    spec.kind = PolicyKind::Watchdog;
    spec.watchdogPeriod = 4000;
    auto policy = makePolicy(spec);
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    RunOptions opts;
    opts.validate = false;
    opts.faults = faults;
    opts.resumeFrom = from;
    if (budget_cycles)
        opts.maxCycles = budget_cycles;
    Simulator sim(prog, arch, cfg, *policy, trace, opts);
    RunResult r = sim.run();
    *matched = r.completed && sim.validateAgainstGolden(golden);
    if (image_out) {
        image_out->resize(cfg.nvmBytes);
        for (uint32_t b = 0; b < cfg.nvmBytes; ++b)
            (*image_out)[b] = sim.nvmRef().peekByte(b);
    }
    return r;
}

/** One crash case: either a persist boundary or a raw cycle. */
struct CrashPoint
{
    uint64_t persist = 0; ///< 1-based persist boundary, 0 = unused
    uint64_t cycle = 0;   ///< absolute cycle, 0 = unused
};

/** The latest snapshot strictly before the crash point (so the
 *  armed crash still fires in the fork); null -> run from scratch. */
const MachineSnapshot *
nearestSnapshot(const std::vector<SnapshotPtr> &snaps,
                const CrashPoint &cp)
{
    const MachineSnapshot *best = nullptr;
    for (const SnapshotPtr &s : snaps) {
        bool usable = cp.persist ? s->persistCount < cp.persist
                                 : s->totalCycles < cp.cycle;
        if (!usable)
            break; // snapshots are in capture order: all later ones
                   // are past the point too
        best = s.get();
    }
    return best;
}

/** Bitwise comparison of two runs of the same crash point (the
 *  fork-correctness contract: every field, energy doubles
 *  included). */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.completed == b.completed &&
           a.activeCycles == b.activeCycles &&
           a.totalCycles == b.totalCycles &&
           a.instructions == b.instructions &&
           a.energy == b.energy &&
           a.totalEnergyNj == b.totalEnergyNj &&
           a.backups == b.backups &&
           a.backupsByReason == b.backupsByReason &&
           a.violations == b.violations && a.renames == b.renames &&
           a.reclaims == b.reclaims && a.restores == b.restores &&
           a.powerFailures == b.powerFailures &&
           a.nvmReads == b.nvmReads && a.nvmWrites == b.nvmWrites &&
           a.maxWear == b.maxWear && a.cacheHits == b.cacheHits &&
           a.cacheMisses == b.cacheMisses &&
           a.tornBackups == b.tornBackups &&
           a.injectedCrashes == b.injectedCrashes &&
           a.eccCorrected == b.eccCorrected &&
           a.eccUncorrectable == b.eccUncorrectable;
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

bool
exploreCombo(campaign::Campaign &cam, const std::string &workload,
             ArchKind arch, const Options &opt, ComboReport &report)
{
    std::string tag = workload + "/" + archKindName(arch);
    std::string census_stage = tag + "/census";
    std::string points_stage = tag + "/points";

    // The program and its golden run are only needed when some cell
    // still has to execute; a fully-journaled combo skips both. They
    // are always prepared on the main thread (workers must not race
    // the assembler caches).
    Program prog;
    std::shared_ptr<const GoldenResult> golden;
    bool have_prog = false;
    auto ensureProg = [&]() {
        if (have_prog)
            return;
        prog = assembleWorkload(workload);
        golden = goldenRun(prog);
        fatal_if(!golden->halted, "golden run of ", workload,
                 " did not halt");
        have_prog = true;
    };

    // Census cell: fault layer on, nothing armed. Records the
    // persist-boundary window of every backup and doubles as the
    // fork-snapshot reference pass (the sink never charges energy or
    // cycles, so the journaled census is unchanged by it). A census
    // that cannot complete cleanly is a finding like any other, so
    // it IS journaled (completed=false) and the combo fails without
    // aborting the sweep.
    CollectingSnapshotSink snapSink(opt.snapStride);
    if (!cam.cellDone(census_stage, 0))
        ensureProg();
    auto census_cells = cam.runStage(
        census_stage, 1,
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            SystemConfig cfg = crashConfig();
            PolicySpec spec;
            spec.kind = PolicyKind::Watchdog;
            spec.watchdogPeriod = 4000;
            auto policy = makePolicy(spec);
            HarvestTrace trace(TraceKind::Rf, 7, 8.0);
            RunOptions opts;
            opts.validate = false;
            FaultConfig census_faults;
            census_faults.enabled = true;
            opts.faults = census_faults;
            if (!opt.noFork) {
                // Quarantine retries re-enter this cell: restart the
                // collection rather than appending to a stale one.
                snapSink.snapshots.clear();
                snapSink.pointsSeen = 0;
                opts.snapshots = &snapSink;
            }
            if (ctx.budgetCycles)
                opts.maxCycles = ctx.budgetCycles;
            Simulator sim(prog, arch, cfg, *policy, trace, opts);
            RunResult r = sim.run();
            if (ctx.budgetCycles && !r.completed)
                throw campaign::CellTimeout{
                    tag + " census exceeded " +
                    std::to_string(ctx.budgetCycles) + " cycles"};
            CensusResult c;
            c.completed = r.completed &&
                          sim.validateAgainstGolden(*golden);
            c.totalCycles = r.totalCycles;
            c.windows = sim.faultInjector().backupWindows();
            return campaign::encodeCensus(c);
        });
    if (census_cells[0].status == campaign::CellStatus::Skipped ||
        census_cells[0].status == campaign::CellStatus::Quarantined)
        return true; // interrupted / reported via quarantine list
    CensusResult census;
    fatal_if(!campaign::decodeCensus(census_cells[0].payload, census),
             "corrupt journal payload for ", census_stage);
    if (!census.completed) {
        std::printf("FAILURE: %s/%s census run did not complete "
                    "cleanly\n",
                    workload.c_str(), archKindName(arch));
        return false;
    }

    // Crash-point list: every (strided) persist boundary of the
    // first maxBackups backups, plus sampled raw cycles. Derived
    // deterministically from the census, so a resume regenerates the
    // identical list.
    std::vector<CrashPoint> points;
    uint64_t nwin =
        std::min<uint64_t>(census.windows.size(), opt.maxBackups);
    for (uint64_t i = 0; i < nwin; ++i) {
        for (uint64_t p = census.windows[i].firstPersist;
             p <= census.windows[i].lastPersist; p += opt.stride)
            points.push_back(CrashPoint{p, 0});
    }
    XorShift rng(opt.seed + static_cast<uint64_t>(arch) * 131);
    for (uint64_t i = 0; i < opt.cycleSamples; ++i) {
        uint64_t c = 1 + rng.next() % (census.totalCycles + 1);
        points.push_back(CrashPoint{0, c});
    }

    report.points = points.size();

    bool any_fresh = false;
    for (size_t i = 0; i < points.size() && !any_fresh; ++i)
        any_fresh = !cam.cellDone(points_stage, i);
    if (any_fresh)
        ensureProg();

    bool want_verify = opt.verifyFork > 0 && !opt.noFork;

    // Fork snapshots. A fresh sweep collected them during the census
    // cell above; a --resume'd sweep skipped that cell (the census
    // itself comes back from the journal), so re-derive them with a
    // local, un-journaled reference run -- and only when some point
    // still has to execute. A fully-journaled combo replays findings
    // without simulating anything.
    std::vector<SnapshotPtr> snaps = std::move(snapSink.snapshots);
    if (!opt.noFork && (any_fresh || want_verify) && snaps.empty()) {
        ensureProg();
        SystemConfig cfg = crashConfig();
        PolicySpec spec;
        spec.kind = PolicyKind::Watchdog;
        spec.watchdogPeriod = 4000;
        auto policy = makePolicy(spec);
        HarvestTrace trace(TraceKind::Rf, 7, 8.0);
        RunOptions opts;
        opts.validate = false;
        FaultConfig ref_faults;
        ref_faults.enabled = true;
        opts.faults = ref_faults;
        CollectingSnapshotSink refSink(opt.snapStride);
        opts.snapshots = &refSink;
        Simulator sim(prog, arch, cfg, *policy, trace, opts);
        RunResult r = sim.run();
        fatal_if(!r.completed,
                 "reference run of ", tag,
                 " did not complete, but its journaled census did");
        snaps = std::move(refSink.snapshots);
    }

    // Fan the crash points across the engine; workers only simulate.
    // Each point forks from the latest snapshot preceding its crash
    // point (snapshots are immutable and COW-shared, so concurrent
    // forks are safe) and journals a 1-byte outcome (crashed/
    // completed/matched flags) -- byte-identical to what a
    // from-scratch run journals, so journals transfer between forked
    // and --no-fork sweeps. The gathered outcomes are scanned in
    // point order afterwards, so failure lines come out in a
    // deterministic order whatever the worker count.
    auto results = cam.runStage(
        points_stage, points.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            const CrashPoint &cp = points[ctx.index];
            FaultConfig faults;
            faults.enabled = true;
            faults.crashAtPersist = cp.persist;
            faults.crashAtCycle = cp.cycle;
            bool matched = false;
            const MachineSnapshot *from =
                nearestSnapshot(snaps, cp);
            RunResult r = runOnce(prog, arch, faults, *golden,
                                  &matched, ctx.budgetCycles, from);
            if (ctx.budgetCycles && !r.completed)
                throw campaign::CellTimeout{
                    tag + " point " + std::to_string(ctx.index) +
                    " exceeded " + std::to_string(ctx.budgetCycles) +
                    " cycles"};
            char flags =
                static_cast<char>((r.injectedCrashes > 0 ? 1 : 0) |
                                  (r.completed ? 2 : 0) |
                                  (matched ? 4 : 0));
            return std::string(1, flags);
        });

    // --verify-fork: re-run the first N forkable points of the combo
    // from scratch (main thread; deterministic order) and require
    // run-stat and final-NVM-image bit-identity with the fork.
    uint64_t verified = 0;
    if (want_verify && !snaps.empty()) {
        for (size_t idx = 0;
             idx < points.size() && verified < opt.verifyFork &&
             !cam.interrupted();
             ++idx) {
            const CrashPoint &cp = points[idx];
            const MachineSnapshot *from = nearestSnapshot(snaps, cp);
            if (!from)
                continue; // point precedes the first snapshot
            FaultConfig faults;
            faults.enabled = true;
            faults.crashAtPersist = cp.persist;
            faults.crashAtCycle = cp.cycle;
            bool m_fork = false, m_scratch = false;
            std::vector<uint8_t> img_fork, img_scratch;
            RunResult r_fork = runOnce(prog, arch, faults, *golden,
                                       &m_fork, 0, from, &img_fork);
            RunResult r_scratch =
                runOnce(prog, arch, faults, *golden, &m_scratch, 0,
                        nullptr, &img_scratch);
            ++verified;
            if (sameRun(r_fork, r_scratch) &&
                m_fork == m_scratch && img_fork == img_scratch)
                continue;
            ++report.forkDivergent;
            std::printf(
                "FAILURE: %s/%s fork diverged from scratch at %s "
                "%llu\nrepro: nvmr_crashtest -w %s -a %s "
                "--max-backups %llu --stride %llu --cycle-samples "
                "%llu --seed %llu --snap-stride %llu "
                "--verify-fork %llu\n",
                workload.c_str(), archKindName(arch),
                cp.persist ? "persist" : "cycle",
                static_cast<unsigned long long>(
                    cp.persist ? cp.persist : cp.cycle),
                workload.c_str(), archKindName(arch),
                static_cast<unsigned long long>(opt.maxBackups),
                static_cast<unsigned long long>(opt.stride),
                static_cast<unsigned long long>(opt.cycleSamples),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(opt.snapStride),
                static_cast<unsigned long long>(idx + 1));
        }
        report.forkVerified = verified;
    }

    for (size_t idx = 0; idx < points.size(); ++idx) {
        if (results[idx].status == campaign::CellStatus::Skipped ||
            results[idx].status == campaign::CellStatus::Quarantined)
            continue; // interrupted / reported via quarantine list
        const CrashPoint &cp = points[idx];
        char flags =
            results[idx].payload.empty() ? 0 : results[idx].payload[0];
        if (flags & 1)
            ++report.crashed;
        if (!(flags & 2)) {
            ++report.stuck;
            std::printf("FAILURE: %s/%s stuck with crash at %s %llu\n",
                        workload.c_str(), archKindName(arch),
                        cp.persist ? "persist" : "cycle",
                        static_cast<unsigned long long>(
                            cp.persist ? cp.persist : cp.cycle));
        } else if (!(flags & 4)) {
            ++report.divergent;
            std::printf("FAILURE: %s/%s diverged with crash at "
                        "%s %llu\n",
                        workload.c_str(), archKindName(arch),
                        cp.persist ? "persist" : "cycle",
                        static_cast<unsigned long long>(
                            cp.persist ? cp.persist : cp.cycle));
        }
    }
    return report.divergent == 0 && report.stuck == 0 &&
           report.forkDivergent == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    // Line-buffer even when piped so long sweeps show live progress.
    std::setvbuf(stdout, nullptr, _IOLBF, 0);
    Options opt;
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
            opt.workloads = splitList(need(i));
        } else if (a == "-a" || a == "--archs") {
            opt.archs.clear();
            for (const std::string &n : splitList(need(i)))
                opt.archs.push_back(parseArch(n));
        } else if (a == "--max-backups") {
            opt.maxBackups = std::strtoull(need(i), nullptr, 10);
        } else if (a == "--stride") {
            opt.stride = std::max<uint64_t>(
                1, std::strtoull(need(i), nullptr, 10));
        } else if (a == "--cycle-samples") {
            opt.cycleSamples = std::strtoull(need(i), nullptr, 10);
        } else if (a == "--seed") {
            opt.seed = std::strtoull(need(i), nullptr, 10);
        } else if (a == "--snap-stride") {
            opt.snapStride = std::max<uint64_t>(
                1, std::strtoull(need(i), nullptr, 10));
        } else if (a == "--verify-fork") {
            opt.verifyFork = std::strtoull(need(i), nullptr, 10);
        } else if (a == "--no-fork") {
            opt.noFork = true;
        } else if (a == "--jobs" || a == "--threads") {
            // --threads predates the engine; 0 keeps the old
            // "use all cores" meaning (the engine's default).
            opt.jobs = static_cast<unsigned>(
                std::strtoul(need(i), nullptr, 10));
            par::setGlobalJobs(opt.jobs);
        } else if (a == "--smoke") {
            opt.workloads = {"hist", "qsort"};
            opt.maxBackups = 5;
            opt.stride = 9;
            opt.cycleSamples = 2;
            opt.seed = 1;
        } else if (a == "--stats-json") {
            opt.statsJsonPath = need(i);
        } else if (a == "-v" || a == "--verbose") {
            opt.verbose = true;
        } else if (a == "-h" || a == "--help") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown argument '", a, "'");
        }
    }

    if (opt.workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            opt.workloads.push_back(w.name);

    std::string config_spec = "crashtest|workloads=";
    for (size_t i = 0; i < opt.workloads.size(); ++i) {
        if (i)
            config_spec += ',';
        config_spec += opt.workloads[i];
    }
    config_spec += "|archs=";
    for (size_t i = 0; i < opt.archs.size(); ++i) {
        if (i)
            config_spec += ',';
        config_spec += archKindName(opt.archs[i]);
    }
    config_spec += "|max_backups=" + std::to_string(opt.maxBackups) +
                   "|stride=" + std::to_string(opt.stride) +
                   "|cycle_samples=" +
                   std::to_string(opt.cycleSamples) +
                   "|seed=" + std::to_string(opt.seed);
    cli::appendWatchdogSpec(config_spec, copts);

    obs::Telemetry telemetry("nvmr_crashtest", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_crashtest", config_spec, copts);

    uint64_t total_points = 0;
    uint64_t total_crashed = 0;
    bool ok = true;
    JsonWriter combos;
    combos.beginArray();
    for (const std::string &w : opt.workloads) {
        for (ArchKind arch : opt.archs) {
            if (cam.interrupted())
                break;
            ComboReport report;
            bool combo_ok = exploreCombo(cam, w, arch, opt, report);
            if (cam.interrupted())
                break;
            total_points += report.points;
            total_crashed += report.crashed;
            combos.beginObject();
            combos.kv("workload", w);
            combos.kv("arch", archKindName(arch));
            combos.kv("points", report.points);
            combos.kv("crashed", report.crashed);
            combos.kv("divergent", report.divergent);
            combos.kv("stuck", report.stuck);
            combos.kv("fork_verified", report.forkVerified);
            combos.kv("fork_divergent", report.forkDivergent);
            combos.kv("ok", combo_ok);
            combos.endObject();
            if (opt.verbose || !combo_ok)
                std::printf(
                    "%-14s %-14s %6llu points, %6llu crashed, "
                    "%llu divergent, %llu stuck%s\n",
                    w.c_str(), archKindName(arch),
                    static_cast<unsigned long long>(report.points),
                    static_cast<unsigned long long>(report.crashed),
                    static_cast<unsigned long long>(report.divergent),
                    static_cast<unsigned long long>(report.stuck),
                    combo_ok ? "" : "  <-- FAIL");
            ok = ok && combo_ok;
        }
        if (cam.interrupted())
            break;
    }
    combos.endArray();

    if (cam.interrupted())
        std::printf("interrupted: progress checkpointed%s\n",
                    copts.journalPath.empty() ? " (no --journal)"
                                              : "");
    else
        std::printf("crashtest %s: %llu crash points (%llu fired), "
                    "%llu workloads x %llu archs\n",
                    ok ? "passed" : "FAILED",
                    static_cast<unsigned long long>(total_points),
                    static_cast<unsigned long long>(total_crashed),
                    static_cast<unsigned long long>(
                        opt.workloads.size()),
                    static_cast<unsigned long long>(opt.archs.size()));
    for (const auto &q : cam.quarantined())
        warn("quarantined ", q.stage, "/", q.index, " after ",
             q.attempts, " attempt(s): ", q.reason);

    int rc = ok ? kExitOk : kExitMismatch;
    if (!opt.statsJsonPath.empty()) {
        ManifestWriter manifest("nvmr_crashtest");
        manifest.setConfig(crashConfig());
        manifest.addExtra("crash_points",
                          static_cast<double>(total_points));
        manifest.addExtra("crashes_fired",
                          static_cast<double>(total_crashed));
        manifest.addExtra("result", cam.interrupted() ? "interrupted"
                                    : ok              ? "passed"
                                                      : "failed");
        manifest.addExtraJson("combos", combos.str());
        manifest.addExtraJson("quarantine", cam.quarantineJson());
        if (!manifest.tryWriteFile(opt.statsJsonPath) &&
            rc == kExitOk)
            rc = kExitDegraded;
    }
    if ((std::fflush(stdout) != 0 || std::ferror(stdout)) &&
        rc == kExitOk) {
        warn("error writing to stdout");
        rc = kExitDegraded;
    }
    return cam.exitCode(rc);
}
