/**
 * @file
 * Tests for the crash/bit-error fault-injection subsystem: torn-write
 * prefix semantics, crash-once arming, the backup-window census, the
 * SECDED ECC pipeline (correct / detect+retry / uncorrectable), the
 * commit-record fallback to the last complete backup, bit-identity
 * when the injector is disabled, and the --strict-atomic escape
 * hatch.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.hh"
#include "isa/assembler.hh"
#include "mem/nvm.hh"
#include "run_identity.hh"
#include "test_meter.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

// ----------------------------------------------------------------------
// Torn writes and crash points
// ----------------------------------------------------------------------

TEST(TornWrite, CrashAtPersistLeavesExactPrefix)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.crashAtPersist = 3;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    // A five-word persist sequence: the crash must land before the
    // third word, leaving words 0 and 1 and nothing after.
    bool crashed = false;
    for (uint32_t w = 0; w < 5; ++w) {
        try {
            nvm.writeWord(w * kWordBytes, 0xa0 + w);
        } catch (const PowerFailure &) {
            crashed = true;
            break;
        }
    }
    ASSERT_TRUE(crashed);
    EXPECT_EQ(nvm.peekWord(0), 0xa0u);
    EXPECT_EQ(nvm.peekWord(4), 0xa1u);
    EXPECT_EQ(nvm.peekWord(8), 0u) << "torn word must not land";
    EXPECT_EQ(nvm.peekWord(12), 0u);
    EXPECT_EQ(inj.stats().injectedCrashes, 1u);
    EXPECT_EQ(inj.stats().persistPoints, 3u);
    // The interrupted write was never charged or counted.
    EXPECT_EQ(nvm.totalWrites(), 2u);
}

TEST(TornWrite, CrashFiresExactlyOnce)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.crashAtPersist = 2;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    nvm.writeWord(0, 1);
    EXPECT_THROW(nvm.writeWord(4, 2), PowerFailure);
    // Recovery re-runs the same persists; the armed point is behind
    // the counter now and must never fire again.
    for (uint32_t w = 0; w < 8; ++w)
        EXPECT_NO_THROW(nvm.writeWord(w * kWordBytes, 7));
    EXPECT_EQ(inj.stats().injectedCrashes, 1u);
}

TEST(CrashPoints, CyclePointDisarmsAfterFiring)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.crashAtCycle = 100;
    FaultInjector inj(fc);

    EXPECT_NO_THROW(inj.cyclePoint(99));
    EXPECT_THROW(inj.cyclePoint(100), PowerFailure);
    EXPECT_NO_THROW(inj.cyclePoint(100));
    EXPECT_NO_THROW(inj.cyclePoint(5000));
    EXPECT_EQ(inj.stats().injectedCrashes, 1u);
}

TEST(CrashPoints, BackupWindowCensusRecordsPersistSpans)
{
    FaultConfig fc;
    fc.enabled = true;
    FaultInjector inj(fc);

    inj.noteBackupStart();
    inj.persistPoint();
    inj.persistPoint();
    inj.persistPoint();
    inj.noteBackupEnd();

    // A window with no persists (nothing dirty) is not recorded.
    inj.noteBackupStart();
    inj.noteBackupEnd();

    inj.noteBackupStart();
    inj.persistPoint();
    inj.noteBackupEnd();

    ASSERT_EQ(inj.backupWindows().size(), 2u);
    EXPECT_EQ(inj.backupWindows()[0].firstPersist, 1u);
    EXPECT_EQ(inj.backupWindows()[0].lastPersist, 3u);
    EXPECT_EQ(inj.backupWindows()[1].firstPersist, 4u);
    EXPECT_EQ(inj.backupWindows()[1].lastPersist, 4u);
}

// ----------------------------------------------------------------------
// Bit errors and ECC
// ----------------------------------------------------------------------

TEST(Ecc, SingleStuckBitIsCorrected)
{
    FaultConfig fc;
    fc.enabled = true;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    nvm.writeWord(0x40, 0x0); // bit 5 will read back stuck high
    inj.forceStuckBit(0x40, 5, true);
    EXPECT_EQ(nvm.readWord(0x40), 0x0u) << "SECDED corrects one bit";
    EXPECT_GE(inj.stats().eccCorrected, 1u);
    EXPECT_EQ(inj.stats().eccUncorrectable, 0u);
}

TEST(Ecc, DoubleStuckBitExhaustsRetriesThenPropagates)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.maxReadRetries = 2;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    nvm.writeWord(0x80, 0x0);
    inj.forceStuckBit(0x80, 3, true);
    inj.forceStuckBit(0x80, 9, true);
    // Two hard errors: retries cannot help, the corrupt word is
    // handed up.
    EXPECT_EQ(nvm.readWord(0x80), (1u << 3) | (1u << 9));
    EXPECT_EQ(inj.stats().eccRetries, 2u);
    EXPECT_GE(inj.stats().eccUncorrectable, 1u);
}

TEST(Ecc, DisabledEccReturnsRawCorruption)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.eccEnabled = false;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    nvm.writeWord(0xc0, 0x0);
    inj.forceStuckBit(0xc0, 0, true);
    EXPECT_EQ(nvm.readWord(0xc0), 1u);
    EXPECT_EQ(inj.stats().eccCorrected, 0u);
}

TEST(Ecc, TransientFlipsAlwaysCorrectedWhenSingleBit)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.transientBitErrorRate = 1.0; // flip on every read
    fc.doubleBitFraction = 0.0;     // but only ever one bit
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    nvm.writeWord(0x100, 0x12345678);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(nvm.readWord(0x100), 0x12345678u);
    EXPECT_GE(inj.stats().transientFlips, 50u);
    EXPECT_GE(inj.stats().eccCorrected, 50u);
    EXPECT_EQ(inj.stats().eccUncorrectable, 0u);
}

TEST(Ecc, InspectStoredIsDeterministicAndRngFree)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.transientBitErrorRate = 1.0; // must NOT affect inspection
    FaultInjector inj(fc);

    EXPECT_EQ(inj.inspectStored(0x10, 0xff), 0xffu);
    inj.forceStuckBit(0x10, 2, false); // one stuck bit: corrected
    EXPECT_EQ(inj.inspectStored(0x10, 0xff), 0xffu);
    inj.forceStuckBit(0x10, 4, false); // two: uncorrectable
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(inj.inspectStored(0x10, 0xff),
                  0xffu & ~((1u << 2) | (1u << 4)));
}

TEST(Ecc, WearCoupledStuckBitsAppear)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.stuckBitRatePerWrite = 0.2;
    fc.stuckWearThreshold = 4;
    fc.seed = 99;
    FaultInjector inj(fc);

    TechParams tech;
    TestMeter meter;
    Nvm nvm(1 << 16, tech, meter);
    nvm.attachFaults(&inj);

    // Hammer one word far past the wear threshold.
    for (int i = 0; i < 200; ++i)
        nvm.writeWord(0x200, static_cast<Word>(i));
    EXPECT_GE(inj.stats().stuckBitsCreated, 1u);
}

// ----------------------------------------------------------------------
// Whole-system: torn backups, commit-record fallback, bit-identity
// ----------------------------------------------------------------------

const char *kProgram = R"(
        .data
arr:    .rand 96 17 0 5000
        .text
main:
        li   r1, 0
pass:
        li   r2, 0
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        ld   r5, 0(r3)
        muli r5, r5, 5
        addi r5, r5, 3
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 96
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 5
        blt  r1, r6, pass
        halt
)";

SystemConfig
faultTestConfig()
{
    SystemConfig cfg = SystemConfig::smallPlatform();
    cfg.mapTableEntries = 64;
    return cfg;
}

class FaultedArch : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(FaultedArch, TornBackupFallsBackToLastCompleteBackup)
{
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();

    // Census pass: where do the backups persist?
    RunOptions census;
    census.faults.enabled = true;
    census.validate = false;
    std::vector<FaultInjector::BackupWindow> windows;
    {
        WatchdogPolicy policy(300);
        HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
        Simulator sim(prog, GetParam(), cfg, policy, trace, census);
        RunResult r = sim.run();
        ASSERT_TRUE(r.completed);
        windows = sim.faultInjector().backupWindows();
    }
    ASSERT_GE(windows.size(), 3u);

    // Crash at the very first persist of the second backup: the
    // second backup is torn before anything committed, so recovery
    // must fall back to the first backup's commit record and the run
    // must still reach the golden final state.
    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.crashAtPersist = windows[1].firstPersist;
    WatchdogPolicy policy(300);
    HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
    Simulator sim(prog, GetParam(), cfg, policy, trace, opts);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(r.injectedCrashes, 1u);
    EXPECT_GE(r.tornBackups, 1u);
    EXPECT_GE(r.powerFailures, 1u);
}

TEST_P(FaultedArch, SurvivesCrashBeforeTheFirstBackupCommits)
{
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();

    // Crash inside the very first (Initial) backup: no commit record
    // exists yet, so recovery must reboot from reset and retake it.
    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.crashAtPersist = 1;
    WatchdogPolicy policy(300);
    HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
    Simulator sim(prog, GetParam(), cfg, policy, trace, opts);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(r.injectedCrashes, 1u);
}

TEST_P(FaultedArch, CompletesUnderCorrectableBitErrorLoad)
{
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();

    RunOptions opts;
    opts.faults.enabled = true;
    // High enough that even HOOP's few direct NVM word reads sample
    // at least one flip; single-bit only, so ECC always corrects.
    opts.faults.transientBitErrorRate = 2e-2;
    opts.faults.doubleBitFraction = 0;
    opts.faults.seed = 7;
    WatchdogPolicy policy(300);
    HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
    Simulator sim(prog, GetParam(), cfg, policy, trace, opts);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated)
        << "corrected bit errors must not change the final state";
    EXPECT_GE(r.eccCorrected, 1u);
    EXPECT_EQ(r.eccUncorrectable, 0u);
}

TEST_P(FaultedArch, DisabledInjectorIsBitIdenticalToDefaultRun)
{
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();

    auto runWith = [&](const RunOptions &opts) {
        WatchdogPolicy policy(300);
        HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
        Simulator sim(prog, GetParam(), cfg, policy, trace, opts);
        return sim.run();
    };

    RunResult plain = runWith(RunOptions{});

    // Same run with every fault knob populated but the master switch
    // off: all accounting must be bit-identical.
    RunOptions armed;
    armed.faults.enabled = false;
    armed.faults.crashAtPersist = 100;
    armed.faults.crashAtCycle = 12345;
    armed.faults.transientBitErrorRate = 0.5;
    armed.faults.stuckBitRatePerWrite = 0.5;
    RunResult off = runWith(armed);

    EXPECT_TRUE(sameRun(off, plain));
    EXPECT_EQ(off.injectedCrashes, 0u);
    EXPECT_EQ(off.tornBackups, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Archs, FaultedArch,
    ::testing::Values(ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop,
                      ArchKind::Task),
    [](const ::testing::TestParamInfo<ArchKind> &info) {
        return archKindName(info.param);
    });

// ----------------------------------------------------------------------
// --strict-atomic escape hatch
// ----------------------------------------------------------------------

using StrictAtomicDeathTest = ::testing::Test;

TEST(StrictAtomicDeathTest, PowerFailureInsideAtomicBackupPanics)
{
    // A crash injected at the first persist lands inside the Initial
    // backup's atomic section. Under --strict-atomic that is the old
    // fatal error instead of a recoverable torn backup.
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();
    cfg.strictAtomic = true;

    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.crashAtPersist = 1;

    EXPECT_DEATH(
        {
            WatchdogPolicy policy(300);
            HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
            Simulator sim(prog, ArchKind::Clank, cfg, policy, trace,
                          opts);
            sim.run();
        },
        "atomic");
}

TEST(StrictAtomic, DefaultModeRecoversFromTheSameCrash)
{
    Program prog = assemble("fault", kProgram);
    SystemConfig cfg = faultTestConfig();

    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.crashAtPersist = 1;
    WatchdogPolicy policy(300);
    HarvestTrace trace(TraceKind::Wind, 4242, 7.0);
    Simulator sim(prog, ArchKind::Clank, cfg, policy, trace, opts);
    RunResult r = sim.run(); // must recover, not abort
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
}

} // namespace
} // namespace nvmr
