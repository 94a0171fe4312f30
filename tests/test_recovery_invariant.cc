/**
 * @file
 * The recovery invariant, checked live: at every persisted backup the
 * architecture's view of the application data is captured, and at
 * every restore the view must match the most recent capture exactly
 * — renaming, log replay and pointer rollback included. This is the
 * operational form of DESIGN.md's "renaming recovery invariant".
 */

#include <gtest/gtest.h>

#include <vector>

#include "isa/assembler.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

const char *kProgram = R"(
        .data
arr:    .rand 192 13 0 2000
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
        muli r5, r5, 3
        addi r5, r5, 1
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 192
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 6
        blt  r1, r6, pass
        halt
)";

/** Captures the app image at backups, checks it at restores. */
class RecoveryChecker : public TraceSink
{
  public:
    RecoveryChecker(Simulator &simulator, uint32_t app_words)
        : sim(simulator), words(app_words)
    {
    }

    void
    consume(const TraceEvent &ev) override
    {
        if (ev.kind == EventKind::BackupCommit)
            onBackup();
        else if (ev.kind == EventKind::Restore)
            onRestore(ev.active);
    }

    void
    onBackup()
    {
        image.resize(words);
        for (uint32_t w = 0; w < words; ++w)
            image[w] = sim.archRef().inspectWord(w * kWordBytes);
        haveImage = true;
    }

    void
    onRestore(uint64_t at)
    {
        ASSERT_TRUE(haveImage) << "restore before any backup";
        ++restoresChecked;
        for (uint32_t w = 0; w < words; ++w) {
            Word got = sim.archRef().inspectWord(w * kWordBytes);
            ASSERT_EQ(got, image[w])
                << "recovery mismatch at word " << w
                << " after restore @" << at;
        }
    }

    Simulator &sim;
    uint32_t words;
    std::vector<Word> image;
    bool haveImage = false;
    uint64_t restoresChecked = 0;
};

class RecoveryInvariant : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(RecoveryInvariant, RestoreAlwaysSeesLastBackupImage)
{
    Program prog = assemble("recov", kProgram);
    SystemConfig cfg = SystemConfig::smallPlatform();
    cfg.mapTableEntries = 64;
    // A leaky standby regulator: every JIT hibernation browns out
    // instead of recovering, so restores actually happen within this
    // short program.
    cfg.tech.hibernateLeakNjPerCycle = 5.0;

    uint64_t restores_checked = 0;
    for (uint64_t seed : {2024u, 2025u, 2026u}) {
        JitPolicy policy;
        HarvestTrace trace(TraceKind::Rf, seed, 7.0);
        Simulator sim(prog, GetParam(), cfg, policy, trace);
        RecoveryChecker checker(sim, 192);
        sim.attachTrace(&checker);

        RunResult r = sim.run();
        ASSERT_TRUE(r.completed) << "seed " << seed;
        EXPECT_TRUE(r.validated) << "seed " << seed;
        restores_checked += checker.restoresChecked;
    }
    EXPECT_GT(restores_checked, 0u)
        << "test needs at least one power failure to be meaningful";
}

TEST_P(RecoveryInvariant, HoldsUnderWatchdogToo)
{
    Program prog = assemble("recov", kProgram);
    SystemConfig cfg = SystemConfig::smallPlatform();
    cfg.mapTableEntries = 64;

    WatchdogPolicy policy(300);
    HarvestTrace trace(TraceKind::Wind, 999, 7.0);
    Simulator sim(prog, GetParam(), cfg, policy, trace);
    RecoveryChecker checker(sim, 192);
    sim.attachTrace(&checker);

    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(checker.restoresChecked, 0u);
}

/**
 * The invariant under injected crashes: cut power at every persist
 * boundary of two early backups (so every phase of the backup
 * protocol -- snapshot staging, journal copies, map-table and
 * free-list updates, commit, post-commit replay and reclamation --
 * gets torn at least once) and require that every crashed run still
 * recovers, completes, and matches the golden continuous execution.
 */
TEST_P(RecoveryInvariant, SurvivesCrashAtEveryBackupPhase)
{
    Program prog = assemble("recov", kProgram);
    SystemConfig cfg = SystemConfig::smallPlatform();
    cfg.mapTableEntries = 64;

    // Census pass: record each backup's persist-boundary window.
    std::vector<FaultInjector::BackupWindow> windows;
    {
        RunOptions census;
        census.faults.enabled = true;
        census.validate = false;
        WatchdogPolicy policy(300);
        HarvestTrace trace(TraceKind::Wind, 999, 7.0);
        Simulator sim(prog, GetParam(), cfg, policy, trace, census);
        RunResult r = sim.run();
        ASSERT_TRUE(r.completed);
        windows = sim.faultInjector().backupWindows();
    }
    ASSERT_GE(windows.size(), 4u);

    uint64_t torn_total = 0;
    for (size_t i : {size_t(1), size_t(2)}) {
        for (uint64_t p = windows[i].firstPersist;
             p <= windows[i].lastPersist; ++p) {
            RunOptions opts;
            opts.faults.enabled = true;
            opts.faults.crashAtPersist = p;
            WatchdogPolicy policy(300);
            HarvestTrace trace(TraceKind::Wind, 999, 7.0);
            Simulator sim(prog, GetParam(), cfg, policy, trace,
                          opts);
            RunResult r = sim.run();
            ASSERT_TRUE(r.completed) << "stuck at persist " << p;
            ASSERT_TRUE(r.validated) << "diverged at persist " << p;
            ASSERT_EQ(r.injectedCrashes, 1u) << "persist " << p;
            torn_total += r.tornBackups;
        }
    }
    EXPECT_GT(torn_total, 0u)
        << "at least one crash point must tear a backup";
}

INSTANTIATE_TEST_SUITE_P(
    Archs, RecoveryInvariant,
    ::testing::Values(ArchKind::Clank, ArchKind::Nvmr,
                      ArchKind::Hoop, ArchKind::Task),
    [](const ::testing::TestParamInfo<ArchKind> &info) {
        return archKindName(info.param);
    });

} // namespace
} // namespace nvmr
