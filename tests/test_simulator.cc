/**
 * @file
 * Integration tests for the intermittent simulator: completion,
 * validation against the continuous run (and the per-Program golden
 * cache behind it), energy conservation across categories, and
 * power-failure re-execution behaviour.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "par/par.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

/** A small program with read-modify-write traffic over 2 KB. */
const char *kRmwProgram = R"(
        .data
arr:    .rand 512 31 0 1000
        .text
main:
        li   r1, 0              # pass
pass:
        li   r2, 0              # i
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        ld   r5, 0(r3)
        addi r5, r5, 1
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 512
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 6
        blt  r1, r6, pass
        halt
)";

struct SimTest : public ::testing::Test
{
    Program prog = assemble("rmw", kRmwProgram);
    SystemConfig cfg;
    HarvestTrace trace{TraceKind::Solar, 77, 8.0};
};

TEST_F(SimTest, ClankCompletesAndValidates)
{
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Clank, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.instructions, 0u);
    EXPECT_GT(r.backups, 0u);
}

TEST_F(SimTest, NvmrCompletesAndValidates)
{
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Nvmr, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
}

TEST_F(SimTest, HoopCompletesAndValidates)
{
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Hoop, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
}

TEST_F(SimTest, IdealWithJitValidates)
{
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Ideal, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.violations, 0u);
}

TEST_F(SimTest, EnergyCategoriesSumToTotal)
{
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Clank, cfg, policy, trace);
    RunResult r = sim.run();
    NanoJoules sum = 0;
    for (NanoJoules e : r.energy)
        sum += e;
    EXPECT_NEAR(sum, r.totalEnergyNj, 1e-6);
    EXPECT_GT(r.energyOf(ECat::Forward), 0.0);
    EXPECT_GT(r.energyOf(ECat::Backup), 0.0);
}

TEST_F(SimTest, JitHasNegligibleDeadEnergy)
{
    // Section 6.1.4: with the JIT scheme there is no dead energy.
    JitPolicy policy;
    Simulator sim(prog, ArchKind::Clank, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_LE(r.energyOf(ECat::Dead),
              0.01 * r.totalEnergyNj);
}

TEST_F(SimTest, WatchdogBacksUpPeriodically)
{
    // A store-only (write-dominated) program: no violation backups
    // interfere, so the watchdog timer drives the backup count.
    Program wr_only = assemble("wronly", R"(
        .data
arr:    .space 2048
        .text
main:
        li   r1, 0
pass:
        li   r2, 0
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        st   r1, 0(r3)
        addi r2, r2, 1
        li   r6, 512
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 8
        blt  r1, r6, pass
        halt
)");
    WatchdogPolicy policy(8000);
    Simulator sim(wr_only, ArchKind::Clank, cfg, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    // Roughly one policy backup per 8000 active cycles.
    uint64_t policy_backups =
        r.backupsByReason[static_cast<size_t>(BackupReason::Policy)];
    EXPECT_GE(policy_backups, r.activeCycles / 8000 / 2);
}

TEST_F(SimTest, SmallCapacitorCausesPowerFailures)
{
    // The co-sized platform: a full 256 B cache's atomic backup does
    // not fit a 500 uF charge, and the watchdog period must be well
    // under the charge lifetime.
    SystemConfig small = SystemConfig::smallPlatform();
    WatchdogPolicy policy(300);
    Simulator sim(prog, ArchKind::Clank, small, policy, trace);
    RunResult r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.powerFailures, 0u);
    EXPECT_EQ(r.restores, r.powerFailures);
    EXPECT_GT(r.energyOf(ECat::Restore), 0.0);
}

TEST_F(SimTest, ReExecutionInflatesInstructionCount)
{
    SystemConfig small = SystemConfig::smallPlatform();
    WatchdogPolicy policy(300);
    Simulator sim(prog, ArchKind::Clank, small, policy, trace);
    RunResult r = sim.run();
    GoldenResult golden = runContinuous(prog);
    EXPECT_TRUE(r.completed);
    EXPECT_GE(r.instructions, golden.instructions);
}

TEST_F(SimTest, NvmrUsesFewerBackupsThanClank)
{
    JitPolicy p1, p2;
    Simulator clank(prog, ArchKind::Clank, cfg, p1, trace);
    Simulator nvmr(prog, ArchKind::Nvmr, cfg, p2, trace);
    RunResult rc = clank.run();
    RunResult rn = nvmr.run();
    ASSERT_TRUE(rc.completed && rn.completed);
    EXPECT_LT(rn.backups, rc.backups);
    EXPECT_GT(rn.renames, 0u);
}

TEST_F(SimTest, GoldenRunnerHaltsAndCounts)
{
    GoldenResult golden = runContinuous(prog);
    EXPECT_TRUE(golden.halted);
    // 6 passes x 512 elements, value starts as rand +6.
    EXPECT_GT(golden.instructions, 6u * 512u * 8u);
}

TEST_F(SimTest, MaxCyclesGuardStopsRun)
{
    Program spin = assemble("spin", R"(
main:
        jmp main
)");
    JitPolicy policy;
    RunOptions opts;
    opts.maxCycles = 200000;
    opts.validate = false;
    Simulator sim(spin, ArchKind::Clank, cfg, policy, trace, opts);
    RunResult r = sim.run();
    EXPECT_FALSE(r.completed);
}

TEST_F(SimTest, GoldenRunIsSharedAcrossSimulators)
{
    JitPolicy p1, p2;
    Simulator a(prog, ArchKind::Nvmr, cfg, p1, trace);
    Simulator b(prog, ArchKind::Clank, cfg, p2, trace);
    ASSERT_TRUE(a.run().validated);
    std::shared_ptr<const GoldenResult> first = goldenRun(prog);
    ASSERT_TRUE(b.run().validated);
    EXPECT_EQ(goldenRun(prog), first);
    // The cached run is the plain golden interpretation.
    GoldenResult fresh = runContinuous(prog);
    EXPECT_EQ(first->data, fresh.data);
    EXPECT_EQ(first->regs, fresh.regs);
    EXPECT_EQ(first->pc, fresh.pc);
    EXPECT_EQ(first->instructions, fresh.instructions);
    EXPECT_TRUE(first->halted);
}

TEST_F(SimTest, GoldenRunIsSharedUnderParallelSimulators)
{
    // Concurrent first uses race to install the golden run; every
    // worker must end up with the single installed result.
    auto golden = par::parallelMap<const GoldenResult *>(
        8,
        [&](size_t i) {
            JitPolicy policy;
            ArchKind arch = i % 2 ? ArchKind::Nvmr : ArchKind::Clank;
            Simulator sim(prog, arch, cfg, policy, trace);
            EXPECT_TRUE(sim.run().validated);
            return goldenRun(prog).get();
        },
        4);
    for (const GoldenResult *g : golden)
        EXPECT_EQ(g, golden[0]);
    EXPECT_EQ(goldenRun(prog).get(), golden[0]);
}

TEST_F(SimTest, CopiesAndInvalidationGetAFreshGoldenRun)
{
    std::shared_ptr<const GoldenResult> original = goldenRun(prog);

    Program copy = prog;
    std::shared_ptr<const GoldenResult> copied = goldenRun(copy);
    EXPECT_NE(copied, original);
    EXPECT_EQ(copied->data, original->data);

    // A mutated copy sees its own data, not the original's run.
    Program mutated = prog;
    mutated.data[0] ^= 0xff;
    EXPECT_NE(goldenRun(mutated)->data, original->data);

    Program assigned = assemble("other", "main:\n    halt\n");
    std::shared_ptr<const GoldenResult> stale = goldenRun(assigned);
    assigned = prog;
    EXPECT_NE(goldenRun(assigned), stale);
    EXPECT_EQ(goldenRun(assigned)->data, original->data);

    prog.invalidateDecoded();
    EXPECT_NE(goldenRun(prog), original);
    EXPECT_EQ(goldenRun(prog)->data, original->data);
}

TEST_F(SimTest, RunDivergingFromGoldenIsNotValidated)
{
    // Cache the golden run, then change the initial data in place
    // without invalidating: the cached image no longer matches what
    // the program computes, and the word-by-word comparison must say
    // so instead of trusting the cache.
    std::shared_ptr<const GoldenResult> golden = goldenRun(prog);
    prog.data[0] ^= 0x01;
    JitPolicy p1, p2;
    Simulator diverged(prog, ArchKind::Nvmr, cfg, p1, trace);
    RunResult r = diverged.run();
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.validationChecked);
    EXPECT_FALSE(r.validated);
    EXPECT_FALSE(diverged.validateAgainstGolden(*golden));

    prog.invalidateDecoded();
    Simulator refreshed(prog, ArchKind::Nvmr, cfg, p2, trace);
    EXPECT_TRUE(refreshed.run().validated);
}

} // namespace
} // namespace nvmr
