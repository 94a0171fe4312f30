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
 * from O(points x trace) into O(trace + points x window). The census
 * stops capturing once it has passed the N explored backup windows,
 * so it keeps only snapshots some point can fork from. Forked runs
 * are byte-identical to from-scratch runs (--verify-fork and the
 * snapshot-equivalence ctest enforce this), so findings and point
 * outcomes are unchanged by the optimization.
 *
 *     nvmr_crashtest                       # full sweep, 50 backups
 *     nvmr_crashtest --smoke               # <30 s fixed-seed subset
 *     nvmr_crashtest -w hist,qsort -a nvmr --max-backups 10
 *     nvmr_crashtest --stride 4 --jobs 8   # --threads is an alias
 *     nvmr_crashtest --verify-fork 5       # cross-check 5 forks/combo
 *     nvmr_crashtest --journal c.jrn       # checkpoint; --resume
 *
 * The whole campaign is two stages of the campaign layer
 * (docs/operations.md): every combination's census, then every
 * combination's crash points, so all workers stay busy across
 * combinations. Verification and reporting follow on the main
 * thread in canonical (workload, arch) order. Unlike the fuzzer,
 * point failures ARE journaled -- a stuck or divergent crash point
 * is a finding, the sweep keeps going and reports it in the summary
 * -- so a resumed sweep replays recorded findings instead of
 * re-running their cells.
 */

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/sig.hh"
#include "cli.hh"
#include "common/bytes.hh"
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
        "(default 4),\n"
        "                        until the census passes the "
        "explored backups\n"
        "  --verify-fork N       re-run N forked points per combo "
        "from\n"
        "                        scratch and require bit-identity\n"
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
 *  (backups at a steady cadence) and the harvest trace. Each run
 *  builds its own policy from the spec, since policies carry run
 *  state. */
struct CrashPlatform
{
    SystemConfig cfg = crashConfig();
    PolicySpec policy{PolicyKind::Watchdog, 4000};
    HarvestTrace trace{TraceKind::Rf, 7, 8.0};
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
    RunOptions opts;
    opts.validate = false;
    opts.faults.enabled = true;
    opts.snapshots = &sink;
    if (budget_cycles)
        opts.maxCycles = budget_cycles;
    auto policy = makePolicy(plat.policy);
    Simulator sim(prog, arch, plat.cfg, *policy, plat.trace, opts);
    RunResult r = sim.run();
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
    RunOptions opts;
    opts.validate = false;
    opts.faults = faults;
    opts.resumeFrom = from;
    if (budget_cycles)
        opts.maxCycles = budget_cycles;
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
            const Options &opt)
{
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
    return points;
}

/** Snapshot capture for one combination's census. Every persist
 *  point lies in the first maxBackups backup windows, so capture
 *  stops once the census has passed them; cycle samples beyond fork
 *  from the latest snapshot kept. */
CollectingSnapshotSink
forkSink(const Options &opt)
{
    return CollectingSnapshotSink(opt.snapStride, opt.maxBackups);
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
    size_t workload = 0; ///< index into Options::workloads
    ArchKind arch = ArchKind::Nvmr;
    std::string tag; ///< "workload/arch", for messages
    CensusCell census;
    std::vector<CrashPoint> points;
    uint64_t firstPoint = 0; ///< global points-stage index of points[0]
    std::vector<SnapshotPtr> snaps; ///< fork sources, capture order
};

/** --verify-fork: re-run the first N forkable points of the combo
 *  from scratch and require run-stat and final-NVM-image
 *  bit-identity with the fork. */
void
verifyForks(campaign::Campaign &cam, const CrashPlatform &plat,
            const Program &prog, const GoldenResult &golden,
            const Combo &cb, const Options &opt, ComboReport &report)
{
    const std::string &workload = opt.workloads[cb.workload];
    for (size_t idx = 0; idx < cb.points.size() &&
                         report.forkVerified < opt.verifyFork &&
                         !cam.interrupted();
         ++idx) {
        const CrashPoint &cp = cb.points[idx];
        FaultConfig faults = crashFaults(cp);
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
        ++report.forkVerified;
        if (campaign::encodeRunResult(r_fork) ==
                campaign::encodeRunResult(r_scratch) &&
            m_fork == m_scratch &&
            samePageContents(img_fork, img_scratch))
            continue;
        ++report.forkDivergent;
        std::printf(
            "FAILURE: %s/%s fork diverged from scratch at %s "
            "%llu\nrepro: nvmr_crashtest -w %s -a %s "
            "--max-backups %llu --stride %llu --cycle-samples "
            "%llu --seed %llu --snap-stride %llu "
            "--verify-fork %llu\n",
            workload.c_str(), archKindName(cb.arch),
            cp.persist ? "persist" : "cycle",
            static_cast<unsigned long long>(cp.persist ? cp.persist
                                                       : cp.cycle),
            workload.c_str(), archKindName(cb.arch),
            static_cast<unsigned long long>(opt.maxBackups),
            static_cast<unsigned long long>(opt.stride),
            static_cast<unsigned long long>(opt.cycleSamples),
            static_cast<unsigned long long>(opt.seed),
            static_cast<unsigned long long>(opt.snapStride),
            static_cast<unsigned long long>(idx + 1));
    }
}

/** Tally a combo's point outcomes (1-byte flags: crashed / completed
 *  / matched) in point order, printing each failure. */
void
tallyPoints(const std::vector<campaign::CellResult> &results,
            const Combo &cb, const Options &opt, ComboReport &report)
{
    const char *workload = opt.workloads[cb.workload].c_str();
    for (size_t idx = 0; idx < cb.points.size(); ++idx) {
        const campaign::CellResult &res = results[cb.firstPoint + idx];
        if (res.status == campaign::CellStatus::Quarantined)
            continue; // reported via the quarantine list
        const CrashPoint &cp = cb.points[idx];
        char flags = res.payload.empty() ? 0 : res.payload[0];
        if (flags & 1)
            ++report.crashed;
        if (!(flags & 2)) {
            ++report.stuck;
            std::printf("FAILURE: %s/%s stuck with crash at %s %llu\n",
                        workload, archKindName(cb.arch),
                        cp.persist ? "persist" : "cycle",
                        static_cast<unsigned long long>(
                            cp.persist ? cp.persist : cp.cycle));
        } else if (!(flags & 4)) {
            ++report.divergent;
            std::printf("FAILURE: %s/%s diverged with crash at "
                        "%s %llu\n",
                        workload, archKindName(cb.arch),
                        cp.persist ? "persist" : "cycle",
                        static_cast<unsigned long long>(
                            cp.persist ? cp.persist : cp.cycle));
        }
    }
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
            opt.maxBackups = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--stride") {
            opt.stride = std::max<uint64_t>(
                1, cli::parseCount(a.c_str(), need(i)));
        } else if (a == "--cycle-samples") {
            opt.cycleSamples = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--seed") {
            opt.seed = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--snap-stride") {
            opt.snapStride = std::max<uint64_t>(
                1, cli::parseCount(a.c_str(), need(i)));
        } else if (a == "--verify-fork") {
            opt.verifyFork = cli::parseCount(a.c_str(), need(i));
        } else if (a == "--jobs" || a == "--threads") {
            // --threads predates the engine; 0 keeps the old
            // "use all cores" meaning (the engine's default).
            const char *v = need(i);
            uint64_t jobs = cli::parseCount(a.c_str(), v);
            fatal_if(jobs > UINT_MAX, "bad ", a, " value '", v, "'");
            par::setGlobalJobs(static_cast<unsigned>(jobs));
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
            fatal("unknown argument '", a, "'");
        }
    }

    if (opt.workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            opt.workloads.push_back(w.name);

    // The stage names are part of the spec, so a journal keyed by
    // another stage layout (one census and one points stage per
    // combination) fails the config-hash check on --resume instead of
    // silently re-running everything. The snapshot stride shapes the
    // journaled capture summary.
    std::string config_spec = "crashtest|stages=census,points|workloads=";
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
                   "|seed=" + std::to_string(opt.seed) +
                   "|snap_stride=" + std::to_string(opt.snapStride);
    cli::appendWatchdogSpec(config_spec, copts);

    obs::Telemetry telemetry("nvmr_crashtest", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_crashtest", config_spec, copts);

    // Combinations in canonical (workload, arch) order: the census
    // stage's cell index, and the order of every report line.
    std::vector<Combo> combos;
    for (size_t w = 0; w < opt.workloads.size(); ++w)
        for (ArchKind arch : opt.archs) {
            Combo cb;
            cb.workload = w;
            cb.arch = arch;
            cb.tag = opt.workloads[w] + "/" + archKindName(arch);
            combos.push_back(std::move(cb));
        }

    // Programs and golden runs are prepared once per workload, on the
    // main thread, and only when some cell of the workload still has
    // to execute (a fully journaled campaign simulates nothing).
    // Workers then share them read-only.
    const CrashPlatform plat;
    std::vector<Program> progs(opt.workloads.size());
    std::vector<std::shared_ptr<const GoldenResult>> goldens(
        opt.workloads.size());
    auto prepare = [&](size_t w) {
        if (goldens[w])
            return;
        progs[w] = assembleWorkload(opt.workloads[w]);
        goldens[w] = goldenRun(progs[w]);
        fatal_if(!goldens[w]->halted, "golden run of ",
                 opt.workloads[w], " did not halt");
    };

    // Stage 1, every census: one cell per combination. A census that
    // cannot complete cleanly is a finding like any other, so it IS
    // journaled (completed=false) and its combination fails without
    // aborting the campaign.
    for (size_t c = 0; c < combos.size(); ++c)
        if (!cam.cellDone("census", c))
            prepare(combos[c].workload);
    auto census_cells = cam.runStage(
        "census", combos.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            Combo &cb = combos[ctx.index];
            CollectingSnapshotSink sink = forkSink(opt);
            CensusCell cell;
            cell.census = runCensus(
                plat, progs[cb.workload], cb.arch,
                *goldens[cb.workload], sink, ctx.budgetCycles, cb.tag);
            cell.snapshots = sink.snapshots.size();
            if (cell.census.completed)
                for (const CrashPoint &cp :
                     crashPoints(cell.census, cb.arch, opt))
                    cell.forked +=
                        forkSource(sink.snapshots, crashFaults(cp)) >= 0;
            cb.snaps = std::move(sink.snapshots);
            return encodeCensusCell(cell);
        });

    // Lay every combination's crash points out in one index space.
    std::vector<size_t> owner; // points-stage index -> combination
    bool want_verify = opt.verifyFork > 0;
    std::vector<size_t> recapture;
    for (size_t c = 0; c < combos.size(); ++c) {
        Combo &cb = combos[c];
        if (census_cells[c].status != campaign::CellStatus::Done)
            continue; // interrupted / reported via quarantine list
        fatal_if(!decodeCensusCell(census_cells[c].payload, cb.census),
                 "corrupt journal payload for ", cb.tag, " census");
        if (!cb.census.census.completed)
            continue;
        cb.points = crashPoints(cb.census.census, cb.arch, opt);
        cb.firstPoint = owner.size();
        owner.resize(owner.size() + cb.points.size(), c);

        bool any_fresh = false;
        for (uint64_t i = cb.firstPoint; i < owner.size() && !any_fresh;
             ++i)
            any_fresh = !cam.cellDone("points", i);
        if (!any_fresh && !want_verify)
            continue;
        prepare(cb.workload);
        // A census served from the journal captured nothing in this
        // process: re-derive its snapshots (below) with the same
        // bounded sink.
        if (census_cells[c].fromJournal)
            recapture.push_back(c);
    }
    std::vector<char> recaptured(recapture.size(), 0);
    par::parallelFor(recapture.size(), [&](size_t k) {
        Combo &cb = combos[recapture[k]];
        CollectingSnapshotSink sink = forkSink(opt);
        recaptured[k] = runCensus(plat, progs[cb.workload], cb.arch,
                                  *goldens[cb.workload], sink, 0,
                                  cb.tag)
                            .completed;
        cb.snaps = std::move(sink.snapshots);
    });
    for (size_t k = 0; k < recapture.size(); ++k)
        fatal_if(!recaptured[k], "reference run of ",
                 combos[recapture[k]].tag,
                 " did not complete, but its journaled census did");

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
            RunResult r = runOnce(plat, progs[cb.workload], cb.arch,
                                  faults, *goldens[cb.workload],
                                  &matched, ctx.budgetCycles,
                                  forkFrom(cb.snaps, faults));
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

    // Verification and every report line on the main thread, one
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
        const std::string &w = opt.workloads[cb.workload];
        ComboReport report;
        report.points = cb.points.size();
        bool combo_ok = true;
        if (census_cells[c].status == campaign::CellStatus::Done &&
            !cb.census.census.completed) {
            std::printf("FAILURE: %s/%s census run did not complete "
                        "cleanly\n",
                        w.c_str(), archKindName(cb.arch));
            combo_ok = false;
        }
        if (want_verify && !cb.snaps.empty())
            verifyForks(cam, plat, progs[cb.workload],
                        *goldens[cb.workload], cb, opt, report);
        if (cam.interrupted())
            break;
        tallyPoints(results, cb, opt, report);
        combo_ok = combo_ok && report.divergent == 0 &&
                   report.stuck == 0 && report.forkDivergent == 0;
        cb.snaps.clear();

        total_points += report.points;
        total_crashed += report.crashed;
        combo_json.beginObject();
        combo_json.kv("workload", w);
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
        if (opt.verbose || !combo_ok)
            std::printf(
                "%-14s %-14s %6llu points, %6llu crashed, "
                "%llu divergent, %llu stuck%s\n",
                w.c_str(), archKindName(cb.arch),
                static_cast<unsigned long long>(report.points),
                static_cast<unsigned long long>(report.crashed),
                static_cast<unsigned long long>(report.divergent),
                static_cast<unsigned long long>(report.stuck),
                combo_ok ? "" : "  <-- FAIL");
        ok = ok && combo_ok;
    }
    combo_json.endArray();

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
        manifest.addExtraJson("combos", combo_json.str());
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
