/**
 * @file
 * Snapshot-equivalence contract (docs/performance.md, "Snapshots and
 * fork-based crash exploration"): a run forked from any captured safe
 * point must be byte-identical to the run that kept going. Every
 * workload runs across all six architecture schemes on both execution
 * engines; each run captures snapshots, then forks from sampled safe
 * points and compares the final application image, CPU state, every
 * RunResult statistic (energy doubles bit-for-bit), the full NVM
 * image, and the traced event stream (the fork's stream must equal
 * the scratch run's suffix from the capture point). A batch of seeded
 * random programs and crash-schedule replays round out the matrix.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "obs/trace.hh"
#include "power/policy.hh"
#include "run_identity.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

bool
sameEvent(const TraceEvent &a, const TraceEvent &b)
{
    return a.cycle == b.cycle && a.active == b.active &&
           a.kind == b.kind && a.a0 == b.a0 && a.a1 == b.a1;
}

/** Unbounded event recorder (the ring buffer could wrap and lose the
 *  prefix the suffix comparison needs). */
class EventLog : public TraceSink
{
  public:
    std::vector<TraceEvent> events;

    void
    consume(const TraceEvent &ev) override
    {
        events.push_back(ev);
    }
};

/** One captured safe point, marked with how many events the scratch
 *  run had emitted at capture time: the fork's whole event stream
 *  must equal the scratch stream from that index on. */
struct MarkedSnapshot
{
    SnapshotPtr snap;
    size_t eventsAtCapture = 0;
};

class MarkingSink : public SnapshotSink
{
  public:
    MarkingSink(uint64_t stride_, const EventLog &log_)
        : log(log_), stride(stride_ ? stride_ : 1)
    {}

    void
    onSnapshotPoint(Simulator &sim) override
    {
        if (points++ % stride != 0)
            return;
        taken.push_back(
            {std::make_shared<MachineSnapshot>(sim.captureSnapshot()),
             log.events.size()});
    }

    std::vector<MarkedSnapshot> taken;

  private:
    const EventLog &log;
    uint64_t stride;
    uint64_t points = 0;
};

/** Everything one run produced, captured for byte-comparison. */
struct Fingerprint
{
    RunResult result;
    std::vector<Word> finalData;
    std::vector<uint8_t> nvmImage;
    std::array<Word, kNumRegs> regs{};
    uint32_t pc = 0;
    bool halted = false;
    std::vector<TraceEvent> events;
};

Fingerprint
harvest(Simulator &sim, const Program &prog, const RunResult &r,
        EventLog &log)
{
    Fingerprint fp;
    fp.result = r;
    uint32_t words = prog.dataSize() / kWordBytes;
    fp.finalData.reserve(words);
    for (uint32_t i = 0; i < words; ++i)
        fp.finalData.push_back(sim.archRef().inspectWord(i * kWordBytes));
    fp.nvmImage.reserve(sim.nvmRef().sizeBytes());
    for (Addr b = 0; b < sim.nvmRef().sizeBytes(); ++b)
        fp.nvmImage.push_back(sim.nvmRef().peekByte(b));
    for (unsigned i = 0; i < kNumRegs; ++i)
        fp.regs[i] = sim.cpuRef().reg(i);
    fp.pc = sim.cpuRef().pc();
    fp.halted = sim.cpuRef().halted();
    fp.events = std::move(log.events);
    return fp;
}

/** Scratch run: capture every `stride`th safe point and the full
 *  event stream. */
Fingerprint
runScratch(const Program &prog, ArchKind arch, BackupPolicy &policy,
           const HarvestTrace &trace, RunOptions opts,
           EngineKind engine, uint64_t stride,
           std::vector<MarkedSnapshot> &snaps_out)
{
    opts.engine = engine;
    SystemConfig cfg;
    EventLog log;
    MarkingSink sink(stride, log);
    opts.snapshots = &sink;
    Simulator sim(prog, arch, cfg, policy, trace, opts);
    sim.attachTrace(&log);
    RunResult r = sim.run();
    snaps_out = std::move(sink.taken);
    return harvest(sim, prog, r, log);
}

/** Forked run: resume from one snapshot and run to the end. */
Fingerprint
runFork(const Program &prog, ArchKind arch, BackupPolicy &policy,
        const HarvestTrace &trace, RunOptions opts, EngineKind engine,
        const MachineSnapshot &snap)
{
    opts.engine = engine;
    opts.snapshots = nullptr;
    opts.resumeFrom = &snap;
    SystemConfig cfg;
    EventLog log;
    Simulator sim(prog, arch, cfg, policy, trace, opts);
    sim.attachTrace(&log);
    RunResult r = sim.run();
    return harvest(sim, prog, r, log);
}

/** The fork must reproduce the scratch run's final machine exactly,
 *  and its event stream must be the scratch stream's suffix. */
void
expectForkIdentical(const Fingerprint &scratch, const Fingerprint &fork,
                    size_t events_at_capture, const std::string &what)
{
    EXPECT_TRUE(sameRun(scratch.result, fork.result)) << what;
    EXPECT_EQ(scratch.finalData, fork.finalData) << what << " image";
    EXPECT_EQ(scratch.nvmImage, fork.nvmImage) << what << " NVM";
    EXPECT_EQ(scratch.regs, fork.regs) << what << " registers";
    EXPECT_EQ(scratch.pc, fork.pc) << what << " pc";
    EXPECT_EQ(scratch.halted, fork.halted) << what << " halted";

    ASSERT_LE(events_at_capture, scratch.events.size()) << what;
    size_t suffix = scratch.events.size() - events_at_capture;
    ASSERT_EQ(fork.events.size(), suffix) << what << " event count";
    for (size_t i = 0; i < suffix; ++i) {
        if (!sameEvent(fork.events[i],
                       scratch.events[events_at_capture + i])) {
            ADD_FAILURE() << what << " event " << i
                          << " diverged from scratch suffix";
            return;
        }
    }
}

/** Sampled fork points: first, middle, last (deduplicated). */
std::vector<size_t>
samplePoints(size_t n)
{
    std::vector<size_t> idx;
    if (n == 0)
        return idx;
    idx.push_back(0);
    if (n > 2)
        idx.push_back(n / 2);
    if (n > 1)
        idx.push_back(n - 1);
    return idx;
}

/** Run scratch + sampled forks on one engine and compare. */
void
expectForksAgree(const Program &prog, ArchKind arch,
                 BackupPolicy &policy, const HarvestTrace &trace,
                 const RunOptions &opts, EngineKind engine,
                 uint64_t stride, const std::string &what)
{
    std::vector<MarkedSnapshot> snaps;
    policy.reset();
    Fingerprint scratch = runScratch(prog, arch, policy, trace, opts,
                                     engine, stride, snaps);
    EXPECT_FALSE(snaps.empty()) << what << ": no safe points captured";
    for (size_t i : samplePoints(snaps.size())) {
        policy.reset();
        Fingerprint fork = runFork(prog, arch, policy, trace, opts,
                                   engine, *snaps[i].snap);
        expectForkIdentical(scratch, fork, snaps[i].eventsAtCapture,
                            what + " fork@" + std::to_string(i));
    }
}

const std::vector<ArchKind> kAllArchs = {
    ArchKind::Ideal, ArchKind::Clank, ArchKind::ClankOriginal,
    ArchKind::Task,  ArchKind::Nvmr,  ArchKind::Hoop};

const std::vector<EngineKind> kEngines = {EngineKind::Interp,
                                          EngineKind::Threaded};

const char *
engineName(EngineKind e)
{
    return e == EngineKind::Interp ? "interp" : "threaded";
}

} // namespace

TEST(SnapshotEquiv, EveryWorkloadEveryArchBothEngines)
{
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    JitPolicy jit;
    RunOptions opts;
    opts.validate = false;
    for (const WorkloadInfo &w : allWorkloads()) {
        Program prog = assembleWorkload(w.name);
        for (ArchKind arch : kAllArchs)
            for (EngineKind engine : kEngines)
                expectForksAgree(prog, arch, jit, trace, opts, engine,
                                 /*stride=*/8,
                                 w.name + "/" + archKindName(arch) +
                                     "/" + engineName(engine));
    }
}

TEST(SnapshotEquiv, CrashScheduleForksLandIdentically)
{
    // A crash armed beyond the capture point must fire in the fork on
    // the exact same cycle it fires in the scratch run: the restored
    // injector state (persist counter, schedule cursors, rng) is part
    // of the snapshot.
    HarvestTrace trace(TraceKind::Rf, 19, 8.0);
    JitPolicy jit;
    Program prog = assembleWorkload("hist");
    for (ArchKind arch :
         {ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop}) {
        for (EngineKind engine : kEngines) {
            RunOptions persist;
            persist.validate = false;
            persist.faults.enabled = true;
            persist.faults.crashAtPersist = 6;
            expectForksAgree(prog, arch, jit, trace, persist, engine,
                             /*stride=*/2,
                             std::string("crash-at-persist/") +
                                 archKindName(arch) + "/" +
                                 engineName(engine));

            RunOptions cycle;
            cycle.validate = false;
            cycle.faults.enabled = true;
            cycle.faults.crashAtCycle = 200000;
            expectForksAgree(prog, arch, jit, trace, cycle, engine,
                             /*stride=*/2,
                             std::string("crash-at-cycle/") +
                                 archKindName(arch) + "/" +
                                 engineName(engine));
        }
    }
}

TEST(SnapshotEquiv, WatchdogAndNonePolicies)
{
    Program prog = assembleWorkload("qsort");
    HarvestTrace trace(TraceKind::Solar, 11, 8.0);
    RunOptions opts;
    opts.validate = false;
    WatchdogPolicy watchdog(8000);
    NonePolicy none;
    for (ArchKind arch : kAllArchs) {
        // The ideal architecture is only safe under perfect JIT.
        if (arch == ArchKind::Ideal)
            continue;
        for (EngineKind engine : kEngines)
            expectForksAgree(prog, arch, watchdog, trace, opts, engine,
                             /*stride=*/8,
                             std::string("watchdog/") +
                                 archKindName(arch) + "/" +
                                 engineName(engine));
    }
    for (EngineKind engine : kEngines)
        expectForksAgree(prog, ArchKind::Task, none, trace, opts,
                         engine, /*stride=*/8,
                         std::string("none/task/") + engineName(engine));
}

TEST(SnapshotEquiv, SeededRandomPrograms)
{
    // The fuzzer's program family through the fork path: each seeded
    // program rotates through a grid covering every scheme, forking
    // from the middle snapshot on both engines.
    struct Case
    {
        ArchKind arch;
        PolicyKind policy;
    };
    const std::vector<Case> grid = {
        {ArchKind::Nvmr, PolicyKind::Jit},
        {ArchKind::Clank, PolicyKind::Jit},
        {ArchKind::Hoop, PolicyKind::Jit},
        {ArchKind::ClankOriginal, PolicyKind::Watchdog},
        {ArchKind::Nvmr, PolicyKind::Watchdog},
        {ArchKind::Ideal, PolicyKind::Jit},
        {ArchKind::Task, PolicyKind::None},
        {ArchKind::Hoop, PolicyKind::Watchdog},
    };
    for (uint64_t seed = 1; seed <= 24; ++seed) {
        const Case &c = grid[seed % grid.size()];
        std::string text = makeRandomProgram(seed);
        Program prog = assemble("rp" + std::to_string(seed), text);
        HarvestTrace trace(TraceKind::Rf, 40000 + seed, 7.0);
        PolicySpec spec;
        spec.kind = c.policy;
        auto policy = makePolicy(spec);
        RunOptions opts;
        opts.validate = false;
        for (EngineKind engine : kEngines)
            expectForksAgree(prog, c.arch, *policy, trace, opts,
                             engine, /*stride=*/4,
                             "randprog seed " + std::to_string(seed) +
                                 " on " + archKindName(c.arch) + "/" +
                                 policyKindName(c.policy) + "/" +
                                 engineName(engine));
    }
}
