/**
 * @file
 * Engine-equivalence differential test (docs/performance.md,
 * "Execution engines"): the threaded engine must be bit-identical to
 * the reference interpreter. Every registered workload and a batch of
 * 200 seeded random programs run through both engines across every
 * architecture scheme, and the final application image, the CPU's
 * architectural state, every RunResult statistic (energy doubles
 * compared bit-for-bit) and the full traced event stream (binary
 * export bytes) must match exactly -- including runs replaying a
 * crash schedule, so injected fault points land on identical cycles.
 * Also pins engine selection: threaded by default, interp on request.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "obs/trace.hh"
#include "power/policy.hh"
#include "run_identity.hh"
#include "sim/engine.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

/** Everything one run produced, captured for byte-comparison. */
struct Fingerprint
{
    RunResult result;
    std::vector<Word> finalData; ///< application image words
    std::array<Word, kNumRegs> regs{};
    uint32_t pc = 0;
    bool halted = false;
    std::string events; ///< TraceBuffer binary export
    uint64_t eventsRecorded = 0;
};

Fingerprint
runOne(const Program &prog, ArchKind arch, BackupPolicy &policy,
       const HarvestTrace &trace, RunOptions opts, EngineKind engine)
{
    opts.engine = engine;
    policy.reset();
    // The architecture keeps a reference to the config, so it must
    // outlive the inspection below -- no temporaries here.
    SystemConfig cfg;
    Simulator sim(prog, arch, cfg, policy, trace, opts);
    TraceBuffer buffer;
    sim.attachTrace(&buffer);

    Fingerprint fp;
    fp.result = sim.run();
    uint32_t words = prog.dataSize() / kWordBytes;
    fp.finalData.reserve(words);
    for (uint32_t i = 0; i < words; ++i)
        fp.finalData.push_back(sim.archRef().inspectWord(i * kWordBytes));
    for (unsigned r = 0; r < kNumRegs; ++r)
        fp.regs[r] = sim.cpuRef().reg(r);
    fp.pc = sim.cpuRef().pc();
    fp.halted = sim.cpuRef().halted();
    std::ostringstream os;
    buffer.writeBinary(os);
    fp.events = os.str();
    fp.eventsRecorded = buffer.totalRecorded();
    return fp;
}

void
expectSame(const Fingerprint &a, const Fingerprint &b,
           const std::string &what)
{
    EXPECT_TRUE(sameRun(a.result, b.result)) << what;
    EXPECT_EQ(a.finalData, b.finalData) << what << " final image";
    EXPECT_EQ(a.regs, b.regs) << what << " registers";
    EXPECT_EQ(a.pc, b.pc) << what;
    EXPECT_EQ(a.halted, b.halted) << what;
    EXPECT_EQ(a.eventsRecorded, b.eventsRecorded) << what;
    EXPECT_EQ(a.events, b.events) << what << " event stream";
}

/** Run both engines and compare. Returns the interp fingerprint so
 *  callers can make extra assertions (e.g. that a crash fired). */
Fingerprint
expectEnginesAgree(const Program &prog, ArchKind arch,
                   BackupPolicy &policy, const HarvestTrace &trace,
                   const RunOptions &opts, const std::string &what)
{
    Fingerprint interp =
        runOne(prog, arch, policy, trace, opts, EngineKind::Interp);
    Fingerprint threaded =
        runOne(prog, arch, policy, trace, opts, EngineKind::Threaded);
    expectSame(interp, threaded, what);
    return interp;
}

const std::vector<ArchKind> kAllArchs = {
    ArchKind::Ideal, ArchKind::Clank, ArchKind::ClankOriginal,
    ArchKind::Task,  ArchKind::Nvmr,  ArchKind::Hoop};

/** A deliberately stateful policy: shouldBackup() counts its calls
 *  and fires on internal state, so fastPath() stays Generic and the
 *  threaded engine must poll it through the virtual call after every
 *  instruction. The call count is part of the equivalence check. */
class CountingPolicy : public BackupPolicy
{
  public:
    const char *name() const override { return "counting"; }

    bool
    shouldBackup(const PolicyContext &ctx) override
    {
        ++calls;
        return ctx.cyclesSinceBackup >= 6000 && calls % 3 == 0;
    }

    void reset() override { calls = 0; }

    uint64_t calls = 0;
};

} // namespace

TEST(EngineEquiv, EveryWorkloadEveryArch)
{
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    JitPolicy jit;
    RunOptions opts;
    opts.validate = false;
    for (const WorkloadInfo &w : allWorkloads()) {
        Program prog = assembleWorkload(w.name);
        for (ArchKind arch : kAllArchs) {
            Fingerprint fp = expectEnginesAgree(
                prog, arch, jit, trace, opts,
                w.name + "/" + archKindName(arch));
            EXPECT_TRUE(fp.result.completed)
                << w.name << "/" << archKindName(arch);
        }
    }
}

TEST(EngineEquiv, WatchdogAndNonePolicies)
{
    Program prog = assembleWorkload("hist");
    HarvestTrace trace(TraceKind::Solar, 11, 8.0);
    RunOptions opts;
    opts.validate = false;
    WatchdogPolicy watchdog(8000);
    NonePolicy none;
    for (ArchKind arch : kAllArchs) {
        // The ideal architecture is only safe under perfect JIT.
        if (arch == ArchKind::Ideal)
            continue;
        expectEnginesAgree(prog, arch, watchdog, trace, opts,
                           std::string("watchdog/") +
                               archKindName(arch));
    }
    // NonePolicy (task-style structural backups only).
    expectEnginesAgree(prog, ArchKind::Task, none, trace, opts,
                       "none/task");
}

TEST(EngineEquiv, ValidationVerdictIdentical)
{
    Program prog = assembleWorkload("qsort");
    HarvestTrace trace(TraceKind::Rf, 13, 8.0);
    JitPolicy jit;
    RunOptions opts; // validate = true
    Fingerprint fp = expectEnginesAgree(prog, ArchKind::Nvmr, jit,
                                        trace, opts, "validated");
    EXPECT_TRUE(fp.result.validationChecked);
    EXPECT_TRUE(fp.result.validated);
}

TEST(EngineEquiv, GenericPolicyPolledIdentically)
{
    Program prog = assembleWorkload("hist");
    HarvestTrace trace(TraceKind::Rf, 17, 8.0);
    RunOptions opts;
    opts.validate = false;
    CountingPolicy counting;

    Fingerprint interp = runOne(prog, ArchKind::Nvmr, counting, trace,
                                opts, EngineKind::Interp);
    uint64_t interp_calls = counting.calls;
    Fingerprint threaded = runOne(prog, ArchKind::Nvmr, counting,
                                  trace, opts, EngineKind::Threaded);
    expectSame(interp, threaded, "generic policy");
    // The stateful policy saw the exact same per-instruction polls.
    EXPECT_EQ(interp_calls, counting.calls);
    EXPECT_GT(counting.calls, 0u);
}

TEST(EngineEquiv, CrashScheduleRepliesLandIdentically)
{
    HarvestTrace trace(TraceKind::Rf, 19, 8.0);
    JitPolicy jit;
    Program prog = assembleWorkload("hist");
    for (ArchKind arch :
         {ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop}) {
        // A crash armed at a persist boundary: the threaded engine
        // must count persists (and therefore cycles) identically for
        // the injected failure to land on the same instruction.
        RunOptions persist;
        persist.validate = false;
        persist.faults.enabled = true;
        persist.faults.crashAtPersist = 3;
        Fingerprint fp = expectEnginesAgree(
            prog, arch, jit, trace, persist,
            std::string("crash-at-persist/") + archKindName(arch));
        EXPECT_EQ(fp.result.injectedCrashes, 1u)
            << archKindName(arch);

        // A crash armed at a raw cycle point: the threaded engine's
        // inlined accounting must poll the injector at the same
        // instruction as the interpreter's addCycles().
        RunOptions cycle;
        cycle.validate = false;
        cycle.faults.enabled = true;
        cycle.faults.crashAtCycle = 120000;
        fp = expectEnginesAgree(
            prog, arch, jit, trace, cycle,
            std::string("crash-at-cycle/") + archKindName(arch));
        EXPECT_EQ(fp.result.injectedCrashes, 1u)
            << archKindName(arch);
    }
}

TEST(EngineEquiv, TwoHundredRandomPrograms)
{
    // Rotate each seeded program through a (arch, policy) grid that
    // covers every scheme; both engines on every single one.
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
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        const Case &c = grid[seed % grid.size()];
        std::string text = makeRandomProgram(seed);
        Program prog =
            assemble("rp" + std::to_string(seed), text);
        // The fuzzer's trace family: enough brown-outs to exercise
        // restore paths without starving the run.
        HarvestTrace trace(TraceKind::Rf, 40000 + seed, 7.0);
        PolicySpec spec;
        spec.kind = c.policy;
        auto policy = makePolicy(spec);
        RunOptions opts;
        opts.validate = false;
        expectEnginesAgree(prog, c.arch, *policy, trace, opts,
                           "randprog seed " + std::to_string(seed) +
                               " on " + archKindName(c.arch) + "/" +
                               policyKindName(c.policy));
    }
}

TEST(EngineSelection, ThreadedIsTheDefaultAndInterpStillWins)
{
    // The caller's NVMR_ENGINE and --engine selection are restored
    // at the end.
    const char *saved_env = std::getenv("NVMR_ENGINE");
    std::string saved = saved_env ? saved_env : "";
    EngineKind saved_global = globalEngine();

    unsetenv("NVMR_ENGINE");
    setGlobalEngine(EngineKind::Default);
    EXPECT_EQ(resolveEngine(EngineKind::Default), EngineKind::Threaded);
    EXPECT_EQ(resolveEngine(EngineKind::Interp), EngineKind::Interp);

    // NVMR_ENGINE=interp selects the reference engine...
    setenv("NVMR_ENGINE", "interp", 1);
    EXPECT_EQ(resolveEngine(EngineKind::Default), EngineKind::Interp);
    // ...and --engine (the global selection) outranks the variable.
    setGlobalEngine(EngineKind::Threaded);
    EXPECT_EQ(resolveEngine(EngineKind::Default), EngineKind::Threaded);
    unsetenv("NVMR_ENGINE");
    setGlobalEngine(EngineKind::Interp);
    EXPECT_EQ(resolveEngine(EngineKind::Default), EngineKind::Interp);
    // A per-run request outranks both.
    EXPECT_EQ(resolveEngine(EngineKind::Threaded), EngineKind::Threaded);

    setGlobalEngine(saved_global);
    if (saved_env)
        setenv("NVMR_ENGINE", saved.c_str(), 1);
}
