/**
 * @file
 * Tests of the shared IntermittentArch machinery: the byte access
 * path, inspectWord's cache-first resolution, region layout, journal
 * charging and the backup-cost interfaces.
 */

#include <gtest/gtest.h>

#include "arch_harness.hh"

namespace nvmr
{
namespace
{

TEST(ArchCommon, ByteAccessesComposeIntoWords)
{
    ArchHarness h(ArchKind::Clank);
    h.arch->storeByte(0x200, 0x11);
    h.arch->storeByte(0x201, 0x22);
    h.arch->storeByte(0x202, 0x33);
    h.arch->storeByte(0x203, 0x44);
    EXPECT_EQ(h.arch->loadWord(0x200), 0x44332211u);
    EXPECT_EQ(h.arch->loadByte(0x202), 0x33u);
}

TEST(ArchCommon, ByteStorePreservesNeighbours)
{
    ArchHarness h(ArchKind::Clank);
    h.arch->storeWord(0x200, 0xaabbccdd);
    h.arch->storeByte(0x201, 0x00);
    EXPECT_EQ(h.arch->loadWord(0x200), 0xaabb00ddu);
}

TEST(ArchCommon, InspectWordPrefersCacheOverNvm)
{
    ArchHarness h(ArchKind::Clank);
    h.nvm->pokeWord(0x200, 111);
    EXPECT_EQ(h.arch->inspectWord(0x200), 111u);
    h.arch->storeWord(0x200, 222); // only in the cache
    EXPECT_EQ(h.arch->inspectWord(0x200), 222u);
    EXPECT_EQ(h.nvm->peekWord(0x200), 111u);
}

TEST(ArchCommon, AppRegionEndIsBlockAligned)
{
    ArchHarness h(ArchKind::Clank);
    EXPECT_EQ(h.arch->appRegionEnd() % 16, 0u);
    EXPECT_GE(h.arch->appRegionEnd(), h.prog.dataSize());
}

TEST(ArchCommon, InitializeLoadsDataImage)
{
    SystemConfig cfg;
    TestMeter meter;
    Nvm nvm(cfg.nvmBytes, cfg.tech, meter);
    auto arch = makeArch(ArchKind::Clank, cfg, nvm, meter);
    Program prog = assemble("img", R"(
        .data
w:      .word 0xdeadbeef 42
        .text
        halt
)");
    arch->initialize(prog);
    EXPECT_EQ(nvm.peekWord(0), 0xdeadbeefu);
    EXPECT_EQ(nvm.peekWord(4), 42u);
}

TEST(ArchCommon, JournalChargeRespectsAtomicityFlag)
{
    SystemConfig with;
    SystemConfig without;
    without.modelBackupAtomicity = false;

    // A dirty read-dominated block makes Clank journal at backup.
    auto backup_energy = [](SystemConfig cfg) {
        ArchHarness h(ArchKind::Clank, cfg);
        h.arch->loadWord(0x100);
        h.arch->storeWord(0x100, 1);
        NanoJoules before = h.meter.energy();
        h.arch->performBackup(CpuSnapshot{}, BackupReason::Policy);
        return h.meter.energy() - before;
    };
    NanoJoules cost_with = backup_energy(with);
    NanoJoules cost_without = backup_energy(without);
    EXPECT_GT(cost_with, cost_without);
    // The difference is exactly one journalled block write.
    TechParams tech;
    EXPECT_NEAR(cost_with - cost_without,
                4 * tech.flashWriteWordNj, 1e-9);
}

TEST(ArchCommon, BackupCostEstimateIsUpperBoundOnBackupEnergy)
{
    for (ArchKind kind :
         {ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop}) {
        ArchHarness h(kind);
        // Dirty a spread of blocks, some read-dominated.
        for (Addr a = 0x100; a < 0x200; a += 16) {
            h.arch->loadWord(a);
            h.arch->storeWord(a, a);
        }
        NanoJoules estimate = h.arch->backupCostNowNj();
        NanoJoules before = h.meter.energy() + h.meter.overhead() +
                            static_cast<double>(h.meter.cycles()) *
                                h.cfg.tech.cpuCycleNj;
        h.arch->performBackup(CpuSnapshot{}, BackupReason::Policy);
        NanoJoules after = h.meter.energy() + h.meter.overhead() +
                           static_cast<double>(h.meter.cycles()) *
                               h.cfg.tech.cpuCycleNj;
        EXPECT_GE(estimate, after - before)
            << archKindName(kind)
            << ": estimate must upper-bound the real cost (the "
               "atomic-backup precheck depends on it)";
    }
}

TEST(ArchCommon, RestoreCostEstimateIsUpperBound)
{
    for (ArchKind kind :
         {ArchKind::Clank, ArchKind::Nvmr, ArchKind::Hoop}) {
        ArchHarness h(kind);
        h.arch->storeWord(0x100, 1);
        h.arch->performBackup(CpuSnapshot{}, BackupReason::Policy);
        h.arch->onPowerFail();
        NanoJoules estimate = h.arch->restoreCostNowNj();
        NanoJoules before = h.meter.energy() + h.meter.overhead() +
                            static_cast<double>(h.meter.cycles()) *
                                h.cfg.tech.cpuCycleNj;
        h.arch->performRestore();
        NanoJoules after = h.meter.energy() + h.meter.overhead() +
                           static_cast<double>(h.meter.cycles()) *
                               h.cfg.tech.cpuCycleNj;
        EXPECT_GE(estimate, after - before) << archKindName(kind);
    }
}

TEST(ArchCommon, ArchNamesAreStable)
{
    EXPECT_STREQ(archKindName(ArchKind::Ideal), "ideal");
    EXPECT_STREQ(archKindName(ArchKind::Clank), "clank");
    EXPECT_STREQ(archKindName(ArchKind::Nvmr), "nvmr");
    EXPECT_STREQ(archKindName(ArchKind::Hoop), "hoop");
    ArchHarness h(ArchKind::Nvmr);
    EXPECT_STREQ(h.arch->name(), "nvmr");
}

TEST(ArchCommon, BackupReasonNamesAreStable)
{
    EXPECT_STREQ(backupReasonName(BackupReason::Initial), "initial");
    EXPECT_STREQ(backupReasonName(BackupReason::IdempotencyViolation),
                 "violation");
    EXPECT_STREQ(backupReasonName(BackupReason::MtCacheEviction),
                 "mtcache_eviction");
    EXPECT_STREQ(backupReasonName(BackupReason::Final), "final");
}

TEST(ArchCommon, StatGroupExposesCountersByName)
{
    ArchHarness h(ArchKind::Nvmr);
    h.arch->loadWord(0x100);
    h.arch->storeWord(0x100, 1);
    h.evict(0x100); // one violation, one rename
    const StatGroup &stats = h.arch->statGroup();
    ASSERT_TRUE(stats.has("violations"));
    ASSERT_TRUE(stats.has("renames"));
    EXPECT_DOUBLE_EQ(stats.value("violations"), 1.0);
    EXPECT_DOUBLE_EQ(stats.value("renames"), 1.0);
    EXPECT_NE(stats.find("backups"), nullptr);
    EXPECT_EQ(stats.find("nonexistent"), nullptr);
    EXPECT_FALSE(stats.has("nonexistent"));
    // Values mirror the struct view.
    EXPECT_DOUBLE_EQ(stats.value("backups"),
                     h.arch->stats().backups.value());
}

TEST(ArchCommon, CacheHitsDoNotTouchNvm)
{
    ArchHarness h(ArchKind::Clank);
    h.arch->loadWord(0x100); // miss: fills from NVM
    uint64_t reads = h.nvm->totalReads();
    for (int i = 0; i < 10; ++i)
        h.arch->loadWord(0x104); // same block: hits
    EXPECT_EQ(h.nvm->totalReads(), reads);
}

TEST(ArchCommon, WritebackReachesNvmOnlyAtEviction)
{
    ArchHarness h(ArchKind::Clank);
    h.arch->storeWord(0x100, 7);
    EXPECT_EQ(h.nvm->totalWrites(), 0u);
    h.evict(0x100);
    EXPECT_GT(h.nvm->totalWrites(), 0u);
    EXPECT_EQ(h.nvm->peekWord(0x100), 7u);
}

} // namespace
} // namespace nvmr
