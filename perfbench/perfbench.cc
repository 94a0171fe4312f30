/**
 * @file
 * In-process half of the repo benchmark (perfbench/run.py).
 *
 *     nvmr_perfbench setup --workload sweep|crashtest
 *         time one cold set-up of the workload (program assembly,
 *         predecode, harvest traces, golden runs, crash census)
 *     nvmr_perfbench trace --workload W --seed N --spans FILE
 *                          [--jobs-file FILE] [--scratch DIR]
 *         replay the workload's cells through each layer's public
 *         functions -- untraced, with a span around every call, and
 *         untraced again -- then climb the layer ladder over the same
 *         programs; prints one JSON object of per-layer metrics
 *
 * A span records name, start, end, parent, thread and the cell it
 * belongs to; spans stay in memory and are written to FILE at the
 * end. A span's self time is its duration minus the union of its
 * children's intervals, so the root span's self time is the replay
 * time no layer span covers. A span is named after the src/ module
 * whose code it times; "mixed.*" spans wrap library calls that run
 * several modules the replay cannot reach inside (runChecked, a
 * forked crash run).
 *
 * The replays make the library calls the tools' main loops make
 * (nvmr_sweep, nvmr_crashtest, nvmr_serve's runner) and write the
 * outputs the tools write -- the sweep CSV, the serve CSVs and fuzz
 * logs, crashtest's point and fired counts -- into each replay's
 * directory, where run.py checks them against the tools' recorded
 * outputs; a replay that drifts from the tools fails the run.
 */

#include <time.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/journal.hh"
#include "check/fuzzcases.hh"
#include "check/oracle.hh"
#include "check/repro.hh"
#include "check/runner.hh"
#include "common/fsutil.hh"
#include "common/log.hh"
#include "common/xorshift.hh"
#include "cpu/decoded.hh"
#include "isa/assembler.hh"
#include "obs/json.hh"
#include "par/par.hh"
#include "serve/job.hh"
#include "serve/runner.hh"
#include "sim/engine.hh"
#include "sim/experiment.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

/** Worker width of every replay: the tools run with --jobs 2. */
constexpr unsigned kJobs = 2;

/** nvmr_serve's spool scan period in the serve workload (run.py's
 *  SERVE_POLL_MS, passed to nvmr_serve --poll-ms). */
constexpr double kServePollMs = 10;

int64_t
clockNs(clockid_t clk)
{
    timespec ts;
    clock_gettime(clk, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t monoNs() { return clockNs(CLOCK_MONOTONIC); }

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

struct SpanRec
{
    uint64_t id, parent, cell;
    const char *name;
    unsigned tid;
    int64_t t0, t1; ///< CLOCK_MONOTONIC
    int64_t cpu;    ///< CLOCK_THREAD_CPUTIME_ID spent inside
};

bool gTracing = false;
std::mutex gSpanMutex;
std::vector<SpanRec> gSpans;
std::atomic<uint64_t> gNextSpan{1};
std::atomic<uint64_t> gNextCell{1};
std::atomic<unsigned> gNextTid{0};
thread_local uint64_t tParent = 0;
thread_local uint64_t tCell = 0;
thread_local int tTid = -1;

constexpr uint64_t kInherit = ~0ull;

/** RAII span; a no-op while tracing is off. */
class Span
{
  public:
    explicit Span(const char *name_, uint64_t parent = kInherit,
                  bool new_cell = false)
    {
        if (!gTracing)
            return;
        rec.name = name_;
        rec.id = gNextSpan++;
        rec.parent = parent == kInherit ? tParent : parent;
        rec.cell = new_cell ? gNextCell++ : tCell;
        if (tTid < 0)
            tTid = static_cast<int>(gNextTid++);
        rec.tid = static_cast<unsigned>(tTid);
        savedParent = tParent;
        savedCell = tCell;
        tParent = rec.id;
        tCell = rec.cell;
        cpu0 = clockNs(CLOCK_THREAD_CPUTIME_ID);
        rec.t0 = monoNs();
    }

    ~Span()
    {
        if (!rec.id)
            return;
        rec.t1 = monoNs();
        rec.cpu = clockNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
        tParent = savedParent;
        tCell = savedCell;
        std::lock_guard<std::mutex> g(gSpanMutex);
        gSpans.push_back(rec);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    uint64_t id() const { return rec.id; }

  private:
    SpanRec rec{};
    uint64_t savedParent = 0, savedCell = 0;
    int64_t cpu0 = 0;
};

// ----------------------------------------------------------------------
// Simulated counts (RunResult sums; deterministic per seed)
// ----------------------------------------------------------------------

struct Counts
{
    uint64_t outcomes = 0, failed = 0;
    uint64_t programs = 0, goldenCalls = 0;
    uint64_t instructions = 0, simInstr = 0;
    uint64_t cacheHits = 0, cacheMisses = 0, nvmReads = 0,
             nvmWrites = 0;
    uint64_t backups = 0, violations = 0, restores = 0, renames = 0,
             reclaims = 0, powerFailures = 0, injectedCrashes = 0;
    uint64_t points = 0, fired = 0, captured = 0, forkPoints = 0,
             replayInstr = 0;
    uint64_t captureNs = 0; ///< host time, not a simulated count
    uint64_t retries = 0, quarantined = 0;
    /** Runs validated inside Simulator::run, by program name. */
    std::map<std::string, uint64_t> runValidations;
};

std::mutex gCountMutex;
Counts gCounts;

/** Fold one simulated run in. `sim_instr` is the part of
 *  r.instructions this run executed (a fork inherits its prefix). */
void
addRun(const RunResult &r, uint64_t sim_instr)
{
    std::lock_guard<std::mutex> g(gCountMutex);
    Counts &c = gCounts;
    c.instructions += r.instructions;
    c.simInstr += sim_instr;
    c.cacheHits += r.cacheHits;
    c.cacheMisses += r.cacheMisses;
    c.nvmReads += r.nvmReads;
    c.nvmWrites += r.nvmWrites;
    c.backups += r.backups;
    c.violations += r.violations;
    c.restores += r.restores;
    c.renames += r.renames;
    c.reclaims += r.reclaims;
    c.powerFailures += r.powerFailures;
    c.injectedCrashes += r.injectedCrashes;
    if (r.validationChecked) {
        ++c.goldenCalls; // Simulator::run's own golden run
        ++c.runValidations[r.program];
    }
}

void
addOutcome(bool ok)
{
    std::lock_guard<std::mutex> g(gCountMutex);
    ++gCounts.outcomes;
    if (!ok)
        ++gCounts.failed;
}

void
bump(uint64_t Counts::*field, uint64_t n = 1)
{
    std::lock_guard<std::mutex> g(gCountMutex);
    gCounts.*field += n;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::string err;
    fatal_if(!atomicWriteFile(path, text, &err), "cannot write ", path,
             ": ", err);
}

// ----------------------------------------------------------------------
// Layer calls shared by the replays
// ----------------------------------------------------------------------

/** The threaded engine predecodes a program on its first run; the
 *  tools' default engine decides whether set-up pays for it. */
bool
defaultEnginePredecodes()
{
    return resolveEngine(EngineKind::Default) == EngineKind::Threaded;
}

Program
assembleSpanned(const std::string &workload)
{
    Program prog;
    {
        Span s("isa.assemble");
        prog = assembleWorkload(workload);
    }
    bump(&Counts::programs);
    if (defaultEnginePredecodes()) {
        Span s("cpu.predecode");
        decodedProgram(prog);
    }
    return prog;
}

/** Campaign::runStage with a stage span and a cell span (new cell id)
 *  around every body call on the worker threads. */
std::vector<campaign::CellResult>
runStage(campaign::Campaign &cam, const std::string &stage, uint64_t n,
         const campaign::Campaign::CellBody &body)
{
    Span st("campaign.runStage");
    uint64_t sid = st.id();
    auto results = cam.runStage(
        stage, n, [&](const campaign::CellContext &ctx) {
            Span cell("campaign.cell", sid, true);
            return body(ctx);
        });
    for (const campaign::CellResult &r : results) {
        if (r.attempts > 1)
            bump(&Counts::retries, r.attempts - 1);
        if (r.status == campaign::CellStatus::Quarantined)
            bump(&Counts::quarantined);
    }
    return results;
}

/** A campaign opened the way the tools open theirs (the journal, when
 *  there is one, is created here). */
std::unique_ptr<campaign::Campaign>
openCampaign(const std::string &tool, const std::string &config,
             const std::string &journal)
{
    Span s("campaign.open");
    campaign::Options copts;
    copts.journalPath = journal;
    return std::make_unique<campaign::Campaign>(tool, config, copts);
}

/** A sweep grid: nvmr_sweep's flags, or a serve sweep job. */
struct Grid
{
    std::vector<std::string> workloads, archs, policies;
    std::vector<double> caps;
    int traces = 0;
};

/** The grid loop of nvmr_sweep and nvmr_serve's sweep job: every cell
 *  runs its program on every trace through runOnTraces, which
 *  validates each run. Returns the CSV both tools write. */
std::string
runGrid(campaign::Campaign &cam, const Grid &g,
        const std::vector<const Program *> &progs)
{
    std::vector<ArchKind> archs(g.archs.size());
    for (size_t i = 0; i < g.archs.size(); ++i)
        fatal_if(!archKindFromName(g.archs[i], archs[i]),
                 "unknown arch ", g.archs[i]);
    std::vector<PolicyKind> policies(g.policies.size());
    for (size_t i = 0; i < g.policies.size(); ++i)
        fatal_if(!policyKindFromName(g.policies[i], policies[i]),
                 "unknown policy ", g.policies[i]);
    std::vector<HarvestTrace> traces;
    {
        Span s("power.trace_build");
        traces = HarvestTrace::standardSet(g.traces);
    }

    struct Cell
    {
        size_t wl, ai, pi;
        double farads;
    };
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < progs.size(); ++wi)
        for (size_t ai = 0; ai < archs.size(); ++ai)
            for (size_t pi = 0; pi < policies.size(); ++pi)
                for (double farads : g.caps)
                    cells.push_back(Cell{wi, ai, pi, farads});

    auto results = runStage(
        cam, "grid", cells.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            const Cell &c = cells[ctx.index];
            SystemConfig cfg;
            cfg.capacitorFarads = c.farads;
            PolicySpec spec;
            spec.kind = policies[c.pi];
            std::vector<RunResult> runs;
            {
                Span s("sim.run");
                runs = runOnTraces(*progs[c.wl], archs[c.ai], cfg, spec,
                                   traces, RunOptions{});
            }
            for (const RunResult &r : runs) {
                addRun(r, r.instructions);
                addOutcome(r.completed && r.validated);
            }
            return campaign::encodeRunResults(runs);
        });

    // The rows exactly as nvmr_sweep prints them and nvmr_serve
    // writes them.
    std::string csv =
        "workload,arch,policy,capacitor_f,total_uj,forward_uj,"
        "overhead_uj,backup_uj,restore_uj,reclaim_uj,dead_uj,"
        "backups,violations,renames,reclaims,power_failures,"
        "nvm_writes,max_wear,completed,validated\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        if (results[i].status != campaign::CellStatus::Done)
            continue;
        const Cell &c = cells[i];
        std::vector<RunResult> runs;
        fatal_if(!campaign::decodeRunResults(results[i].payload, runs),
                 "corrupt payload for grid cell ", i);
        Aggregate a = aggregate(runs);
        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s,%s,%s,%g,%.2f,%.2f,%.2f,%.2f,%.2f,"
            "%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,"
            "%.0f,%d,%d\n",
            g.workloads[c.wl].c_str(), g.archs[c.ai].c_str(),
            g.policies[c.pi].c_str(), c.farads,
            a.totalEnergyNj / 1000.0,
            a.energyOf(ECat::Forward) / 1000.0,
            (a.energyOf(ECat::ForwardOverhead) +
             a.energyOf(ECat::BackupOverhead) +
             a.energyOf(ECat::RestoreOverhead)) /
                1000.0,
            a.energyOf(ECat::Backup) / 1000.0,
            a.energyOf(ECat::Restore) / 1000.0,
            a.energyOf(ECat::Reclaim) / 1000.0,
            a.energyOf(ECat::Dead) / 1000.0, a.backups, a.violations,
            a.renames, a.reclaims, a.powerFailures, a.nvmWrites,
            a.maxWear, a.allCompleted ? 1 : 0, a.allValidated ? 1 : 0);
        csv += row;
    }
    return csv;
}

// ----------------------------------------------------------------------
// sweep: nvmr_sweep --traces 10 (all workloads x clank,nvmr,hoop x
// jit,watchdog)
// ----------------------------------------------------------------------

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadInfo &w : allWorkloads())
        names.push_back(w.name);
    return names;
}

Grid
sweepGrid()
{
    Grid g;
    g.workloads = workloadNames();
    g.archs = {"clank", "nvmr", "hoop"};
    g.policies = {"jit", "watchdog"};
    g.caps = {0.1};
    g.traces = 10;
    return g;
}

void
replaySweep(const std::string &dir)
{
    Grid g = sweepGrid();
    std::vector<Program> progs;
    for (const std::string &name : g.workloads)
        progs.push_back(assembleSpanned(name));
    std::vector<const Program *> ptrs;
    for (const Program &p : progs)
        ptrs.push_back(&p);
    auto cam = openCampaign("nvmr_sweep", "sweep", "");
    writeText(dir + "/sweep.csv", runGrid(*cam, g, ptrs));
}

// ----------------------------------------------------------------------
// crashtest: nvmr_crashtest -w hist,qsort,dijkstra --max-backups 4
// --stride 4 --cycle-samples 4 --seed N (snapshot stride 4, forked)
// ----------------------------------------------------------------------

const std::vector<std::string> kCrashWorkloads = {"hist", "qsort",
                                                  "dijkstra"};
const std::vector<ArchKind> kCrashArchs = {ArchKind::Nvmr, ArchKind::Clank,
                                           ArchKind::Hoop, ArchKind::Task};
constexpr uint64_t kCrashMaxBackups = 4;
constexpr uint64_t kCrashStride = 4;
constexpr uint64_t kCrashCycleSamples = 4;
constexpr uint64_t kCrashSnapStride = 4;

/** nvmr_crashtest's platform: small NvMR structures, reclaim on. */
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

PolicySpec
crashPolicy()
{
    PolicySpec spec;
    spec.kind = PolicyKind::Watchdog;
    spec.watchdogPeriod = 4000;
    return spec;
}

/** CollectingSnapshotSink with a span around every safe point, the
 *  capture time and the instruction count of each capture. */
class TimedSnapshotSink : public SnapshotSink
{
  public:
    void
    onSnapshotPoint(Simulator &sim) override
    {
        size_t before = inner.snapshots.size();
        int64_t t0 = monoNs();
        {
            Span s("snapshot.capture");
            inner.onSnapshotPoint(sim);
        }
        if (inner.snapshots.size() == before)
            return;
        bump(&Counts::captureNs, static_cast<uint64_t>(monoNs() - t0));
        bump(&Counts::captured);
        instret.push_back(sim.cpuRef().instret());
    }

    const std::vector<SnapshotPtr> &snapshots() const
    {
        return inner.snapshots;
    }

    std::vector<uint64_t> instret;

  private:
    CollectingSnapshotSink inner{kCrashSnapStride};
};

struct CrashPoint
{
    uint64_t persist = 0, cycle = 0;
};

struct Census
{
    bool completed = false;
    uint64_t totalCycles = 0;
    std::vector<FaultInjector::BackupWindow> windows;
};

/** nvmr_crashtest's census run: the fault layer on, nothing armed,
 *  snapshots collected. */
Census
runCensusSpanned(const Program &prog, ArchKind arch,
                 const GoldenResult &golden, TimedSnapshotSink *sink)
{
    Span cs("check.census");
    SystemConfig cfg = crashConfig(); // the Simulator keeps a reference
    auto policy = makePolicy(crashPolicy());
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    RunOptions opts;
    opts.validate = false;
    opts.faults.enabled = true;
    opts.snapshots = sink;
    std::optional<Simulator> sim;
    RunResult r;
    {
        Span s("sim.run");
        sim.emplace(prog, arch, cfg, *policy, trace, opts);
        r = sim->run();
    }
    addRun(r, r.instructions);
    Census c;
    {
        Span s("sim.validate");
        c.completed = r.completed && sim->validateAgainstGolden(golden);
    }
    c.totalCycles = r.totalCycles;
    c.windows = sim->faultInjector().backupWindows();
    return c;
}

/** The latest snapshot strictly before the crash point, 1-based;
 *  0 runs from reset (nvmr_crashtest's nearestSnapshot). */
size_t
nearestSnapshot(const std::vector<SnapshotPtr> &snaps, const CrashPoint &cp)
{
    size_t from = 0;
    for (size_t i = 0; i < snaps.size(); ++i) {
        bool usable = cp.persist ? snaps[i]->persistCount < cp.persist
                                 : snaps[i]->totalCycles < cp.cycle;
        if (!usable)
            break;
        from = i + 1;
    }
    return from;
}

void
replayCrashtest(uint64_t seed)
{
    auto cam = openCampaign("nvmr_crashtest", "crashtest", "");
    for (const std::string &w : kCrashWorkloads) {
        for (ArchKind arch : kCrashArchs) {
            std::string tag = w + "/" + archKindName(arch);
            Program prog = assembleSpanned(w);
            GoldenResult golden;
            {
                Span s("sim.golden");
                golden = runContinuous(prog);
            }
            bump(&Counts::goldenCalls);

            TimedSnapshotSink sink;
            Census census;
            runStage(*cam, tag + "/census", 1,
                     [&](const campaign::CellContext &)
                         -> std::optional<std::string> {
                         census = runCensusSpanned(prog, arch, golden,
                                                   &sink);
                         return std::string("c");
                     });
            addOutcome(census.completed);
            if (!census.completed)
                continue;

            std::vector<CrashPoint> points;
            uint64_t nwin = std::min<uint64_t>(census.windows.size(),
                                               kCrashMaxBackups);
            for (uint64_t i = 0; i < nwin; ++i)
                for (uint64_t p = census.windows[i].firstPersist;
                     p <= census.windows[i].lastPersist; p += kCrashStride)
                    points.push_back(CrashPoint{p, 0});
            XorShift rng(seed + static_cast<uint64_t>(arch) * 131);
            for (uint64_t i = 0; i < kCrashCycleSamples; ++i)
                points.push_back(CrashPoint{
                    0, 1 + rng.next() % (census.totalCycles + 1)});

            const std::vector<SnapshotPtr> &snaps = sink.snapshots();
            runStage(
                *cam, tag + "/points", points.size(),
                [&](const campaign::CellContext &ctx)
                    -> std::optional<std::string> {
                    const CrashPoint &cp = points[ctx.index];
                    size_t from = nearestSnapshot(snaps, cp);
                    SystemConfig cfg = crashConfig();
                    auto policy = makePolicy(crashPolicy());
                    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
                    RunOptions opts;
                    opts.validate = false;
                    opts.faults.enabled = true;
                    opts.faults.crashAtPersist = cp.persist;
                    opts.faults.crashAtCycle = cp.cycle;
                    uint64_t prefix = 0;
                    if (from) {
                        opts.resumeFrom = snaps[from - 1].get();
                        prefix = sink.instret[from - 1];
                    }
                    std::optional<Simulator> sim;
                    RunResult r;
                    {
                        // A forked run restores the snapshot inside
                        // Simulator::run: snapshot and sim together.
                        Span s(from ? "mixed.crash_fork"
                                    : "sim.crash_scratch");
                        sim.emplace(prog, arch, cfg, *policy, trace,
                                    opts);
                        r = sim->run();
                    }
                    bool matched;
                    {
                        Span s("sim.validate");
                        matched = r.completed &&
                                  sim->validateAgainstGolden(golden);
                    }
                    addRun(r, r.instructions - prefix);
                    addOutcome(matched);
                    bump(&Counts::points);
                    if (from) {
                        bump(&Counts::forkPoints);
                        bump(&Counts::replayInstr, r.instructions - prefix);
                    }
                    if (r.injectedCrashes > 0)
                        bump(&Counts::fired);
                    return std::string(1, matched ? 'm' : 'x');
                });
        }
    }
}

// ----------------------------------------------------------------------
// serve: the job list run.py drops into nvmr_serve's spool, replayed
// job by job the way serve/runner.cc runs it
// ----------------------------------------------------------------------

struct JobLine
{
    double dueMs = 0;
    std::string name, text;
};

std::vector<JobLine>
readJobsFile(const std::string &path)
{
    std::ifstream in(path);
    fatal_if(!in, "cannot read jobs file ", path);
    std::vector<JobLine> jobs;
    std::string line;
    while (std::getline(in, line)) {
        size_t a = line.find('\t');
        size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
        fatal_if(b == std::string::npos, "malformed jobs file line");
        JobLine j;
        j.dueMs = std::strtod(line.substr(0, a).c_str(), nullptr);
        j.name = line.substr(a + 1, b - a - 1);
        j.text = line.substr(b + 1);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

/** serve/runner.cc's fuzz job: chunks of 10 programs assembled on the
 *  service thread, one cell per (program, case) through evalFuzzCase.
 *  Returns the job's log as nvmr_serve writes it. */
std::string
replayFuzzJob(const serve::JobSpec &job, campaign::Campaign &cam)
{
    const serve::FuzzParams &fp = job.fuzz;
    constexpr uint64_t kChunkProgs = 10;
    std::string log;
    uint64_t runs = 0;
    for (uint64_t i = 0; i < fp.iterations; i += kChunkProgs) {
        uint64_t chunk = std::min(kChunkProgs, fp.iterations - i);
        std::string stage = "c" + std::to_string(i);
        struct Pair
        {
            uint64_t seed, caseIdx;
            size_t prog;
        };
        std::vector<Pair> pairs;
        for (uint64_t p = 0; p < chunk; ++p)
            for (uint64_t ci = 1; ci <= fuzzCaseCount(); ++ci)
                if (!fp.faults ||
                    fuzzCases()[ci - 1].arch != ArchKind::Ideal)
                    pairs.push_back(Pair{fp.baseSeed + i + p, ci, p});
        std::vector<std::string> texts(chunk);
        std::vector<Program> progs(chunk);
        for (uint64_t p = 0; p < chunk; ++p) {
            uint64_t seed = fp.baseSeed + i + p;
            {
                Span s("sim.randprog");
                texts[p] = makeRandomProgram(seed);
            }
            Span s("isa.assemble");
            progs[p] = assemble("fuzz" + std::to_string(seed), texts[p]);
            bump(&Counts::programs);
        }
        auto results = runStage(
            cam, stage, pairs.size(),
            [&](const campaign::CellContext &ctx)
                -> std::optional<std::string> {
                const Pair &pr = pairs[ctx.index];
                const FuzzCase &c = fuzzCases()[pr.caseIdx - 1];
                FaultConfig fc;
                if (fp.faults)
                    fc = randomFuzzFaults(pr.seed, pr.caseIdx);
                FuzzOutcome out;
                {
                    // Oracle mode: runChecked re-assembles the text,
                    // runs the engine with the lockstep invariant
                    // checker, then the oracle and the final-state
                    // diff -- isa, sim, check and cpu together.
                    Span s("mixed.fuzz_case");
                    out = evalFuzzCase(progs[pr.prog], texts[pr.prog],
                                       pr.seed, c,
                                       fp.faults ? &fc : nullptr,
                                       fp.oracle);
                }
                addOutcome(out.ok);
                if (!out.ok)
                    return std::nullopt;
                return std::string("ok");
            });
        for (const campaign::CellResult &r : results) {
            if (r.status == campaign::CellStatus::Failed)
                return log + "FAILURE\n";
            if (r.status == campaign::CellStatus::Done)
                ++runs;
        }
        uint64_t done = i + chunk;
        if (done % 10 == 0) {
            char line[128];
            std::snprintf(line, sizeof(line),
                          "%llu programs, %llu runs, all consistent\n",
                          static_cast<unsigned long long>(done),
                          static_cast<unsigned long long>(runs));
            log += line;
        }
    }
    char line[96];
    std::snprintf(line, sizeof(line),
                  "fuzzing done: %llu runs, no divergence\n",
                  static_cast<unsigned long long>(runs));
    return log + line;
}

/** Every job in due order, as nvmr_serve's service thread runs them;
 *  each job's CSV or log lands in dir/out. */
void
replayServe(const std::vector<JobLine> &jobs, const std::string &dir)
{
    std::string out_dir = dir + "/out";
    fatal_if(!makeDirs(out_dir), "cannot create ", out_dir);
    serve::ProgramCache cache;
    for (const JobLine &jl : jobs) {
        Span js("serve.job", kInherit, true);
        serve::JobSpec spec;
        std::string error;
        bool parsed;
        {
            Span s("serve.parse");
            parsed = serve::parseJobText(jl.text, jl.name, spec, error);
        }
        if (!parsed) {
            addOutcome(false);
            continue;
        }
        auto cam = openCampaign("nvmr_serve", spec.configSpec(),
                                dir + "/" + jl.name + ".jrn");
        if (spec.type == serve::JobType::Fuzz) {
            writeText(out_dir + "/" + jl.name + ".out",
                      replayFuzzJob(spec, *cam));
            continue;
        }
        const serve::SweepParams &sp = spec.sweep;
        std::vector<const Program *> progs;
        for (const std::string &w : sp.workloads) {
            uint64_t resident = cache.residentBytes();
            {
                Span s("isa.assemble");
                progs.push_back(&cache.get(w));
            }
            if (cache.residentBytes() != resident) // assembled, not cached
                bump(&Counts::programs);
        }
        Grid g{sp.workloads, sp.archs, sp.policies, sp.caps, sp.traces};
        writeText(out_dir + "/" + jl.name + ".csv", runGrid(*cam, g, progs));
    }
}

/** nvmr_serve's job loop without the spool: serve::runJob on every
 *  job in due order. Returns each job's service time in ms. */
std::vector<double>
runJobsDirect(const std::vector<JobLine> &jobs, const std::string &scratch)
{
    std::string out_dir = scratch + "/out";
    fatal_if(!makeDirs(out_dir), "cannot create ", out_dir);
    serve::ProgramCache cache;
    std::vector<double> ms;
    for (const JobLine &jl : jobs) {
        int64_t t0 = monoNs();
        serve::JobSpec spec;
        std::string error;
        bool ok = serve::parseJobText(jl.text, jl.name, spec, error);
        if (ok) {
            serve::JobRunOptions opts;
            opts.journalPath = scratch + "/direct-" + jl.name + ".jrn";
            opts.outDir = out_dir;
            serve::JobOutcome o = serve::runJob(spec, opts, cache);
            ok = o.phase == serve::JobPhase::Complete &&
                 o.resultCode == 0 && o.failReason.empty();
        }
        ms.push_back(static_cast<double>(monoNs() - t0) / 1e6);
        addOutcome(ok);
    }
    return ms;
}

// ----------------------------------------------------------------------
// Statistics over the recorded spans
// ----------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct SpanStats
{
    std::map<std::string, std::vector<double>> durMs; ///< by name
    std::map<std::string, double> selfMs;             ///< by module
    double rootMs = 0, rootSelfMs = 0;
    double busyShare = 0, tailIdleMs = 0, cellCpuRatio = 0;
    std::vector<double> cellWaitMs; ///< stage start -> cell start
};

std::string
moduleOf(const char *name)
{
    std::string s = name;
    return s.substr(0, s.find('.'));
}

SpanStats
analyse(const std::vector<SpanRec> &spans)
{
    SpanStats st;
    std::unordered_map<uint64_t, std::vector<const SpanRec *>> kids;
    for (const SpanRec &s : spans)
        if (s.parent)
            kids[s.parent].push_back(&s);

    double stage_ms = 0, cell_ms = 0, cell_cpu_ms = 0;
    for (const SpanRec &s : spans) {
        double dur = static_cast<double>(s.t1 - s.t0) / 1e6;
        st.durMs[s.name].push_back(dur);

        // Self time: duration minus the union of the children.
        std::vector<std::pair<int64_t, int64_t>> iv;
        for (const SpanRec *k : kids[s.id])
            iv.emplace_back(std::max(k->t0, s.t0), std::min(k->t1, s.t1));
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, end = s.t0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        double self = static_cast<double>(s.t1 - s.t0 - covered) / 1e6;
        st.selfMs[moduleOf(s.name)] += self;
        if (!s.parent) {
            st.rootMs += dur;
            st.rootSelfMs += self;
        }

        if (std::string(s.name) == "campaign.runStage") {
            // Pool occupancy: cell time over stage time x workers, and
            // the worker time left idle after each worker's last cell.
            stage_ms += dur * kJobs;
            std::map<unsigned, int64_t> last_end;
            for (const SpanRec *k : kids[s.id]) {
                st.cellWaitMs.push_back(static_cast<double>(k->t0 - s.t0) /
                                        1e6);
                cell_ms += static_cast<double>(k->t1 - k->t0) / 1e6;
                cell_cpu_ms += static_cast<double>(k->cpu) / 1e6;
                int64_t &e = last_end[k->tid];
                e = std::max(e, k->t1);
            }
            unsigned idle_workers = kJobs;
            for (const auto &[tid, e] : last_end) {
                (void)tid;
                st.tailIdleMs += static_cast<double>(s.t1 - e) / 1e6;
                if (idle_workers)
                    --idle_workers;
            }
            st.tailIdleMs += idle_workers * dur;
        }
    }
    st.busyShare = stage_ms > 0 ? cell_ms / stage_ms : 0;
    st.cellCpuRatio = cell_ms > 0 ? cell_cpu_ms / cell_ms : 0;
    return st;
}

double
sumOf(const SpanStats &st, const std::string &name)
{
    auto it = st.durMs.find(name);
    if (it == st.durMs.end())
        return 0;
    double s = 0;
    for (double d : it->second)
        s += d;
    return s;
}

double
meanOf(const SpanStats &st, const std::string &name)
{
    auto it = st.durMs.find(name);
    if (it == st.durMs.end() || it->second.empty())
        return 0;
    return sumOf(st, name) / static_cast<double>(it->second.size());
}

void
writeSpans(const std::string &path, const std::vector<SpanRec> &spans)
{
    int64_t base = spans.empty() ? 0 : spans.front().t0;
    for (const SpanRec &s : spans)
        base = std::min(base, s.t0);
    JsonWriter w;
    w.beginArray();
    for (const SpanRec &s : spans) {
        w.beginObject();
        w.kv("id", s.id);
        w.kv("parent", s.parent);
        w.kv("cell", s.cell);
        w.kv("name", s.name);
        w.kv("tid", s.tid);
        w.kv("start_ns", static_cast<int64_t>(s.t0 - base));
        w.kv("end_ns", static_cast<int64_t>(s.t1 - base));
        w.kv("cpu_ns", static_cast<int64_t>(s.cpu));
        w.endObject();
    }
    w.endArray();
    std::string err;
    fatal_if(!atomicWriteFile(path, w.str() + "\n", &err),
             "cannot write spans: ", err);
}

// ----------------------------------------------------------------------
// Layer ladder: each rung adds one layer over the same programs; a
// layer's per-instruction cost is its rung minus the rung below
// ----------------------------------------------------------------------

struct Rung
{
    double ns = 0, instr = 0;
    double perInstr() const { return instr > 0 ? ns / instr : 0; }
};

/** Best of `reps` timings of fn(), which returns instructions run. */
template <typename Fn>
Rung
climb(int reps, Fn &&fn)
{
    Rung best;
    for (int i = 0; i < reps; ++i) {
        int64_t t0 = monoNs();
        double instr = static_cast<double>(fn());
        double ns = static_cast<double>(monoNs() - t0);
        if (i == 0 || ns < best.ns)
            best = Rung{ns, instr};
    }
    return best;
}

struct LadderOut
{
    double oracle = 0, oracleMs = 0, mem = 0, power = 0;
    std::map<std::string, double> arch;
    double checkedMsPerCase = 0, invariantOverheadPct = 0;
    double campaignUsPerCell = 0;
    uint64_t failed = 0;
};

LadderOut
climbLadder(const std::vector<Program> &progs,
            const std::vector<std::string> &texts)
{
    constexpr int kReps = 3;
    LadderOut out;
    // Rungs 2-3 never lose power: a harvester far above any load keeps
    // the capacitor full, and no policy backs up.
    HarvestTrace always_on = HarvestTrace::fromSamples(
        "always_on", std::vector<double>(4, 1000.0));
    HarvestTrace harvest = HarvestTrace::standardSet(1)[0];
    SystemConfig cfg;

    auto simulate = [&](ArchKind arch, const HarvestTrace &trace,
                        PolicyKind pk) {
        uint64_t instr = 0;
        for (const Program &p : progs) {
            PolicySpec spec;
            spec.kind = pk;
            auto policy = makePolicy(spec);
            RunOptions opts;
            opts.validate = false;
            Simulator sim(p, arch, cfg, *policy, trace, opts);
            RunResult r = sim.run();
            if (!r.completed ||
                (&trace == &always_on && r.powerFailures != 0))
                ++out.failed;
            instr += r.instructions;
        }
        return instr;
    };

    Rung oracle = climb(kReps, [&] {
        uint64_t instr = 0;
        for (const Program &p : progs)
            instr += runOracle(p).instructions;
        return instr;
    });
    Rung ideal = climb(kReps, [&] {
        return simulate(ArchKind::Ideal, always_on, PolicyKind::None);
    });
    out.oracle = oracle.perInstr();
    out.oracleMs = oracle.ns / 1e6;
    out.mem = ideal.perInstr() - oracle.perInstr();

    const std::pair<const char *, ArchKind> archs[] = {
        {"clank", ArchKind::Clank},
        {"nvmr", ArchKind::Nvmr},
        {"hoop", ArchKind::Hoop},
        {"task", ArchKind::Task}};
    double power_sum = 0;
    int power_n = 0;
    for (const auto &[name, kind] : archs) {
        ArchKind k = kind;
        Rung bare = climb(kReps, [&] {
            return simulate(k, always_on, PolicyKind::None);
        });
        out.arch[name] = bare.perInstr() - ideal.perInstr();
        if (k == ArchKind::Task)
            continue; // task runs have no JIT policy to add
        Rung powered = climb(kReps, [&] {
            return simulate(k, harvest, PolicyKind::Jit);
        });
        power_sum += powered.perInstr() - bare.perInstr();
        ++power_n;
    }
    out.power = power_n ? power_sum / power_n : 0;

    // The fuzz harness: the lockstep invariant checker + oracle diff
    // against the plain validated run of the same case (NvMR, JIT).
    const FuzzCase &nvmr_jit = fuzzCases()[4];
    size_t nchecked = std::min<size_t>(progs.size(), 3);
    Rung checked = climb(kReps, [&] {
        for (size_t i = 0; i < nchecked; ++i) {
            CheckOutcome o =
                runChecked(makeFuzzCheckCase(texts[i], 1, nvmr_jit, nullptr));
            if (!o.clean())
                ++out.failed;
        }
        return nchecked;
    });
    Rung plain = climb(kReps, [&] {
        for (size_t i = 0; i < nchecked; ++i) {
            FuzzOutcome o = evalFuzzCase(progs[i], texts[i], 1, nvmr_jit,
                                         nullptr, false);
            if (!o.ok)
                ++out.failed;
        }
        return nchecked;
    });
    out.checkedMsPerCase = checked.perInstr() / 1e6;
    out.invariantOverheadPct =
        plain.ns > 0 ? (checked.ns / plain.ns - 1.0) * 100.0 : 0;

    // Campaign::runStage + par pool around empty cells.
    constexpr uint64_t kNoopCells = 4000;
    Rung stage = climb(kReps, [&] {
        campaign::Campaign cam("nvmr_perfbench", "noop",
                               campaign::Options{});
        cam.runStage("noop", kNoopCells,
                     [](const campaign::CellContext &)
                         -> std::optional<std::string> {
                         return std::string("x");
                     });
        return kNoopCells;
    });
    out.campaignUsPerCell = stage.perInstr() / 1e3;
    return out;
}

/**
 * Host ms that Simulator::run's own validation (its golden run and
 * final-image comparison) cost the replay: for every program the
 * replay validated inside Simulator::run, a validated minus an
 * unvalidated run (NvMR, JIT, the first standard trace; best of 3
 * each), times the number of such runs. The difference is whatever
 * validation costs in the current code, so a cached golden run shows.
 */
double
runValidationMs(const std::map<std::string, uint64_t> &validations,
                uint64_t &failed)
{
    constexpr int kReps = 3;
    HarvestTrace trace = HarvestTrace::standardSet(1)[0];
    double total = 0;
    for (const auto &[name, runs] : validations) {
        Program prog = assembleWorkload(name);
        auto timed = [&](bool validate) {
            return climb(kReps, [&] {
                PolicySpec spec;
                spec.kind = PolicyKind::Jit;
                auto policy = makePolicy(spec);
                RunOptions opts;
                opts.validate = validate;
                Simulator sim(prog, ArchKind::Nvmr, SystemConfig{}, *policy,
                              trace, opts);
                RunResult r = sim.run();
                if (!r.completed || (validate && !r.validated))
                    ++failed;
                return uint64_t{1};
            });
        };
        Rung plain = timed(false);
        Rung validated = timed(true);
        total += (validated.ns - plain.ns) / 1e6 * static_cast<double>(runs);
    }
    return total;
}

// ----------------------------------------------------------------------
// Layer probes: direct measurements, on the workload's own programs, of
// the layers its replay does not run or no span reaches (snapshots and
// census off crashtest, job handling off serve, journal appends inside
// Campaign::runStage everywhere), so every per-layer time is measured
// on every workload
// ----------------------------------------------------------------------

struct ProbeOut
{
    double captureUs = 0, forkMs = 0, scratchMs = 0, censusMs = 0;
    double journalUsP50 = 0, journalUsP90 = 0, parseUs = 0, runJobMs = 0;
    uint64_t failed = 0;
};

ProbeOut
probeLayers(const std::vector<Program> &progs, const std::string &job_text,
            const std::string &sweep_workload, const std::string &scratch)
{
    ProbeOut out;
    SystemConfig cfg = crashConfig();
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    uint64_t captured0 = gCounts.captured, capture_ns0 = gCounts.captureNs;
    size_t n = std::min<size_t>(progs.size(), 3);
    for (size_t i = 0; i < n; ++i) {
        const Program &prog = progs[i];
        GoldenResult golden = runContinuous(prog);
        TimedSnapshotSink sink;
        int64_t t0 = monoNs();
        Census c = runCensusSpanned(prog, ArchKind::Nvmr, golden, &sink);
        out.censusMs += static_cast<double>(monoNs() - t0) / 1e6;
        const std::vector<SnapshotPtr> &snaps = sink.snapshots();
        if (!c.completed || snaps.empty()) {
            ++out.failed;
            continue;
        }
        // A crash just past the middle snapshot, run forked from that
        // snapshot and from reset.
        const MachineSnapshot &mid = *snaps[snaps.size() / 2];
        const MachineSnapshot *none = nullptr;
        for (const MachineSnapshot *from : {&mid, none}) {
            auto policy = makePolicy(crashPolicy());
            RunOptions opts;
            opts.validate = false;
            opts.faults.enabled = true;
            opts.faults.crashAtPersist = mid.persistCount + 1;
            opts.resumeFrom = from;
            int64_t t1 = monoNs();
            Simulator sim(prog, ArchKind::Nvmr, cfg, *policy, trace, opts);
            RunResult r = sim.run();
            (from ? out.forkMs : out.scratchMs) +=
                static_cast<double>(monoNs() - t1) / 1e6 /
                static_cast<double>(n);
            if (!r.completed || !sim.validateAgainstGolden(golden))
                ++out.failed;
        }
    }
    uint64_t captured = gCounts.captured - captured0;
    if (captured)
        out.captureUs = static_cast<double>(gCounts.captureNs - capture_ns0) /
                        1e3 / static_cast<double>(captured);

    // One fsync'd journal record per cell, as the campaign layer writes.
    constexpr int kProbeOps = 200;
    campaign::JournalWriter jrn;
    if (!jrn.openFresh(scratch + "/probe.jrn", 1, "nvmr_perfbench"))
        ++out.failed;
    std::vector<double> append_us;
    for (int i = 0; i < kProbeOps; ++i) {
        int64_t t0 = monoNs();
        jrn.append(campaign::RecordType::Cell,
                   campaign::cellKey("probe", static_cast<uint64_t>(i)), "ok");
        append_us.push_back(static_cast<double>(monoNs() - t0) / 1e3);
    }
    out.journalUsP50 = quantile(append_us, 0.5);
    out.journalUsP90 = quantile(append_us, 0.9);

    serve::JobSpec spec;
    std::string err;
    int64_t t0 = monoNs();
    for (int i = 0; i < kProbeOps; ++i)
        if (!serve::parseJobText(job_text, "probe", spec, err))
            ++out.failed;
    out.parseUs = static_cast<double>(monoNs() - t0) / 1e3 / kProbeOps;

    // serve::runJob on a one-trace sweep job of one workload.
    std::string small = "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
                        "\"workloads\":[\"" + sweep_workload +
                        "\"],\"traces\":1}";
    std::vector<JobLine> jobs(3, JobLine{0, "", small});
    for (size_t i = 0; i < jobs.size(); ++i)
        jobs[i].name = "probe" + std::to_string(i);
    uint64_t failed0 = gCounts.failed;
    out.runJobMs = quantile(runJobsDirect(jobs, scratch + "/probe"), 0.5);
    out.failed += gCounts.failed - failed0;
    return out;
}

// ----------------------------------------------------------------------
// Commands
// ----------------------------------------------------------------------

struct Args
{
    std::string cmd, workload, spans, jobsFile, scratch = ".";
    uint64_t seed = 1;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    fatal_if(argc < 2, "usage: nvmr_perfbench setup|trace --workload W "
                       "[--seed N] [--spans FILE] [--jobs-file FILE] "
                       "[--scratch DIR]");
    a.cmd = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        fatal_if(i + 1 >= argc, "missing value for ", k);
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--jobs-file")
            a.jobsFile = v;
        else if (k == "--scratch")
            a.scratch = v;
        else
            fatal("unknown argument '", k, "'");
    }
    fatal_if(a.workload != "sweep" && a.workload != "crashtest" &&
                 a.workload != "serve",
             "unknown workload '", a.workload, "'");
    return a;
}

/** Host seconds before the workload's first cell can run. */
int
cmdSetup(const Args &a)
{
    fatal_if(a.workload == "serve",
             "serve set-up is the daemon start-up (run.py times it)");
    int64_t t0 = monoNs();
    if (a.workload == "sweep") {
        std::vector<Program> progs;
        for (const std::string &name : workloadNames())
            progs.push_back(assembleSpanned(name));
        auto traces = HarvestTrace::standardSet(10);
        for (const Program &p : progs)
            fatal_if(!runContinuous(p).halted, "golden run of ", p.name,
                     " did not halt");
    } else {
        for (const std::string &w : kCrashWorkloads) {
            Program prog = assembleSpanned(w);
            GoldenResult golden = runContinuous(prog);
            for (ArchKind arch : kCrashArchs) {
                TimedSnapshotSink sink;
                Census c = runCensusSpanned(prog, arch, golden, &sink);
                fatal_if(!c.completed, "census of ", w, " failed");
            }
        }
    }
    std::printf("{\"setup_s\": %.9f}\n",
                static_cast<double>(monoNs() - t0) / 1e9);
    return 0;
}

int
cmdTrace(const Args &a)
{
    par::setGlobalJobs(kJobs);
    std::vector<JobLine> jobs;
    if (a.workload == "serve") {
        fatal_if(a.jobsFile.empty(), "serve needs --jobs-file");
        jobs = readJobsFile(a.jobsFile);
    }
    fatal_if(!makeDirs(a.scratch), "cannot create ", a.scratch);

    // Each replay writes its outputs into scratch/<tag> for run.py's
    // gate; crashtest's outputs are its point and fired counts.
    std::vector<std::pair<uint64_t, uint64_t>> crash_counts;
    auto replay = [&](const char *tag) {
        std::string dir = a.scratch + "/" + tag;
        fatal_if(!makeDirs(dir), "cannot create ", dir);
        gCounts = Counts{};
        int64_t t0 = monoNs();
        {
            Span root("bench.replay", 0, true);
            if (a.workload == "sweep")
                replaySweep(dir);
            else if (a.workload == "crashtest")
                replayCrashtest(a.seed);
            else
                replayServe(jobs, dir);
        }
        crash_counts.emplace_back(gCounts.points, gCounts.fired);
        return static_cast<double>(monoNs() - t0) / 1e6;
    };

    // Untraced, traced, untraced: the overhead is taken against the
    // mean of the two untraced replays around the traced one.
    gTracing = false;
    double untraced_ms = replay("untraced");
    Counts untraced_counts = gCounts;
    gTracing = true;
    double traced_ms = replay("traced");
    gTracing = false;
    Counts c = gCounts;
    untraced_ms = (untraced_ms + replay("untraced2")) / 2;
    std::vector<SpanRec> spans = std::move(gSpans);
    SpanStats st = analyse(spans);
    if (!a.spans.empty())
        writeSpans(a.spans, spans);

    // Simulated counts must repeat exactly, traced or not.
    auto same = [](const Counts &x, const Counts &y) {
        return x.instructions == y.instructions && x.backups == y.backups &&
               x.nvmWrites == y.nvmWrites && x.renames == y.renames &&
               x.points == y.points && x.fired == y.fired &&
               x.outcomes == y.outcomes && x.failed == y.failed;
    };
    bool counts_repeat = same(c, untraced_counts) && same(c, gCounts);

    // The ladder's programs: the workload's own (the first ten fuzz
    // programs on serve).
    std::vector<Program> progs;
    std::vector<std::string> texts;
    if (a.workload == "serve") {
        for (const JobLine &jl : jobs) {
            serve::JobSpec spec;
            std::string err;
            if (!serve::parseJobText(jl.text, jl.name, spec, err) ||
                spec.type != serve::JobType::Fuzz)
                continue;
            for (uint64_t i = 0; i < spec.fuzz.iterations; ++i) {
                if (progs.size() >= 10)
                    break;
                uint64_t seed = spec.fuzz.baseSeed + i;
                texts.push_back(makeRandomProgram(seed));
                progs.push_back(
                    assemble("fuzz" + std::to_string(seed), texts.back()));
            }
        }
    } else {
        const std::vector<std::string> names =
            a.workload == "sweep" ? workloadNames() : kCrashWorkloads;
        for (const std::string &n : names) {
            texts.push_back(findWorkload(n).source);
            progs.push_back(assembleWorkload(n));
        }
    }
    LadderOut lad = climbLadder(progs, texts);
    double run_validation_ms = runValidationMs(c.runValidations, lad.failed);
    std::string job_text =
        a.workload == "sweep"
            ? "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\",\"traces\":10}"
        : a.workload == "crashtest"
            ? "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
              "\"workloads\":[\"hist\",\"qsort\",\"dijkstra\"]}"
            : jobs.front().text;
    ProbeOut probe = probeLayers(progs, job_text,
                                 a.workload == "sweep" ? workloadNames()[0]
                                                       : kCrashWorkloads[0],
                                 a.scratch);
    lad.failed += probe.failed;

    // Work waiting to start: on serve, jobs in nvmr_serve's queue --
    // the open-loop schedule replayed against serve::runJob service
    // times, one job at a time in due order, and an idle service
    // scanning the spool every poll period; elsewhere, cells waiting
    // for a worker of the par pool.
    double runjob_p50 = probe.runJobMs;
    double wait_p90 = quantile(st.cellWaitMs, 0.9);
    if (a.workload == "serve") {
        uint64_t failed_before = gCounts.failed;
        std::vector<double> service =
            runJobsDirect(jobs, a.scratch + "/direct");
        lad.failed += gCounts.failed - failed_before;
        runjob_p50 = quantile(service, 0.5);
        std::vector<double> waits;
        double free_at = 0; // the service scans at free_at + k * poll
        for (size_t i = 0; i < jobs.size(); ++i) {
            double due = jobs[i].dueMs, start = free_at;
            if (due > free_at)
                start += std::ceil((due - free_at) / kServePollMs) *
                         kServePollMs;
            waits.push_back(start - due);
            free_at = start + service[i];
        }
        wait_p90 = quantile(waits, 0.9);
    }
    // A layer the replay did not run is measured by the probe.
    auto has = [&](const char *name) { return st.durMs.count(name) > 0; };

    // Simulator runs whose RunResult the replay sees (evalFuzzCase
    // returns none for a clean case).
    double sim_ms = sumOf(st, "sim.run") + sumOf(st, "mixed.crash_fork") +
                    sumOf(st, "sim.crash_scratch");
    double golden_ms = sumOf(st, "sim.golden") + run_validation_ms;
    double cell_ms = sumOf(st, "campaign.cell");
    uint64_t accesses = c.cacheHits + c.cacheMisses;

    JsonWriter w;
    w.beginObject();
    w.kv("ok", counts_repeat && c.failed == 0 && lad.failed == 0);
    w.kv("attempted", c.outcomes);
    w.kv("failed", c.failed + lad.failed);
    w.key("crash_counts");
    w.beginArray();
    for (const auto &[points, fired] : crash_counts) {
        w.beginArray();
        w.value(points);
        w.value(fired);
        w.endArray();
    }
    w.endArray();
    w.key("metrics");
    w.beginObject();
    w.kv("isa.assemble_ms", sumOf(st, "isa.assemble"));
    w.kv("isa.programs", c.programs);
    w.kv("cpu.predecode_ms", sumOf(st, "cpu.predecode"));
    w.kv("cpu.oracle_ns_per_instr", lad.oracle);
    w.kv("sim.run_ns_per_instr",
         c.simInstr ? sim_ms * 1e6 / static_cast<double>(c.simInstr) : 0.0);
    w.kv("sim.instructions", c.instructions);
    w.kv("sim.golden_ms", golden_ms);
    w.kv("sim.validate_ms", sumOf(st, "sim.validate"));
    w.kv("sim.golden_share", cell_ms > 0 ? golden_ms / cell_ms : 0.0);
    w.kv("sim.golden_calls_per_program",
         c.programs ? static_cast<double>(c.goldenCalls) /
                          static_cast<double>(c.programs)
                    : 0.0);
    w.kv("mem.ns_per_instr", lad.mem);
    w.kv("mem.cache_hit_ratio",
         accesses ? static_cast<double>(c.cacheHits) /
                        static_cast<double>(accesses)
                  : 0.0);
    w.kv("mem.nvm_reads", c.nvmReads);
    w.kv("mem.nvm_writes", c.nvmWrites);
    for (const auto &[name, v] : lad.arch)
        w.kv("arch.ns_per_instr." + name, v);
    w.kv("arch.backups", c.backups);
    w.kv("arch.violations", c.violations);
    w.kv("arch.restores", c.restores);
    w.kv("core.renames", c.renames);
    w.kv("core.reclaims", c.reclaims);
    w.kv("power.ns_per_instr", lad.power);
    w.kv("power.trace_build_ms", sumOf(st, "power.trace_build"));
    w.kv("power.power_failures", c.powerFailures);
    w.kv("fault.crashes_injected", c.injectedCrashes);
    w.kv("fault.fired_ratio",
         c.points ? static_cast<double>(c.fired) /
                        static_cast<double>(c.points)
                  : 0.0);
    w.kv("snapshot.capture_us",
         c.captured ? static_cast<double>(c.captureNs) / 1e3 /
                          static_cast<double>(c.captured)
                    : probe.captureUs);
    w.kv("snapshot.captured", c.captured);
    w.kv("snapshot.fork_ms_per_point", has("mixed.crash_fork")
                                           ? meanOf(st, "mixed.crash_fork")
                                           : probe.forkMs);
    w.kv("snapshot.scratch_ms_per_point",
         has("sim.crash_scratch") ? meanOf(st, "sim.crash_scratch")
                                  : probe.scratchMs);
    w.kv("snapshot.replay_instr_per_point",
         c.forkPoints ? static_cast<double>(c.replayInstr) /
                            static_cast<double>(c.forkPoints)
                      : 0.0);
    w.kv("check.census_ms", has("check.census") ? sumOf(st, "check.census")
                                                : probe.censusMs);
    w.kv("check.oracle_ms", lad.oracleMs);
    w.kv("check.checked_ms_per_case", lad.checkedMsPerCase);
    w.kv("check.invariant_overhead_pct", lad.invariantOverheadPct);
    w.kv("campaign.overhead_us_per_cell", lad.campaignUsPerCell);
    w.kv("campaign.journal_append_us_p50", probe.journalUsP50);
    w.kv("campaign.journal_append_us_p90", probe.journalUsP90);
    w.kv("campaign.retries", c.retries);
    w.kv("campaign.quarantined", c.quarantined);
    w.kv("par.busy_share", st.busyShare);
    w.kv("par.tail_idle_ms", st.tailIdleMs);
    w.kv("par.cell_cpu_ratio", st.cellCpuRatio);
    w.kv("serve.parse_us", has("serve.parse") ? meanOf(st, "serve.parse") * 1e3
                                              : probe.parseUs);
    w.kv("serve.queue_wait_ms_p90", wait_p90);
    w.kv("serve.runjob_ms_p50", runjob_p50);
    // Where the replay's time went: each module's share of all span
    // self time (both workers; the rest is bench.unaccounted_pct).
    double self_total = 0;
    for (const auto &[m, ms] : st.selfMs)
        self_total += ms;
    for (const char *m : {"isa", "cpu", "power", "sim", "check",
                          "snapshot", "campaign", "serve", "mixed"}) {
        auto it = st.selfMs.find(m);
        w.kv(std::string("self_pct.") + m,
             it == st.selfMs.end() || self_total <= 0
                 ? 0.0
                 : it->second / self_total * 100.0);
    }
    w.kv("bench.replay_ms", traced_ms);
    w.kv("bench.unaccounted_pct",
         st.rootMs > 0 ? st.rootSelfMs / st.rootMs * 100.0 : 0.0);
    w.kv("bench.trace_overhead_pct",
         untraced_ms > 0 ? (traced_ms / untraced_ms - 1.0) * 100.0 : 0.0);
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    Args a = parseArgs(argc, argv);
    if (a.cmd == "setup")
        return cmdSetup(a);
    if (a.cmd == "trace")
        return cmdTrace(a);
    fatal("unknown command '", a.cmd, "'");
}
