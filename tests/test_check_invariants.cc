/**
 * @file
 * Tests for the lockstep invariant layer (src/check): the structural
 * deep checker as a property test over >= 10k randomized renames, the
 * event-driven InvariantSink on synthetic streams, full checked runs
 * that must stay clean, the seeded mutation bugs that must be caught,
 * and bit-identity of simulation stats with the checker attached.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/runner.hh"
#include "common/xorshift.hh"
#include "core/freelist.hh"
#include "core/maptable.hh"
#include "core/mtcache.hh"
#include "isa/assembler.hh"
#include "mem/nvm.hh"
#include "run_identity.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

// ----------------------------------------------------------------------
// deepCheckNvmr property test: drive the real renaming structures
// through >= 10k renames with randomized commit and reclaim order and
// assert the deep checker stays silent at every consistent point.
// ----------------------------------------------------------------------

struct DeepCheckProperty : public ::testing::Test
{
    static constexpr Addr kReservedBase = 0x10000;
    static constexpr uint32_t kBlock = 16;
    static constexpr uint32_t kReservedCount = 32;
    static constexpr uint32_t kTags = 48;

    TechParams tech;
    TestMeter meter;
    MapTable mt{64, tech, meter};
    FreeList fl{kReservedCount, tech, meter};
    MapTableCache mtc{16, 4, tech, meter};

    /** Uncommitted renames: tag -> popped fresh location. */
    std::unordered_map<Addr, Addr> pending;

    void SetUp() override
    {
        fl.initFill(kReservedBase, kBlock, kReservedCount);
    }

    Addr tagAt(uint32_t i) const { return 0x1000 + i * kBlock; }

    std::unordered_set<Addr>
    inFlight() const
    {
        std::unordered_set<Addr> s;
        for (const auto &[tag, fresh] : pending)
            s.insert(fresh);
        return s;
    }

    std::vector<std::string>
    check(bool committed)
    {
        auto fly = inFlight();
        return deepCheckNvmr(mt, fl, mtc, kReservedBase, kBlock,
                             kReservedCount, /*require_mtc_clean=*/true,
                             committed ? nullptr : &fly);
    }

    /** Commit one pending rename: durable map entry + retire the old
     *  mapping to the free list (the NvMR backup-flush protocol). */
    void
    commit(Addr tag)
    {
        auto it = pending.find(tag);
        ASSERT_NE(it, pending.end());
        auto old = mt.peek(tag);
        mt.set(tag, it->second);
        if (old && *old != tag && *old >= kReservedBase)
            fl.push(*old);
        pending.erase(it);
    }
};

TEST_F(DeepCheckProperty, TenThousandRandomizedRenamesStayClean)
{
    XorShift rng(20260807);
    uint64_t renames = 0;
    uint64_t checks = 0;

    while (renames < 10000) {
        uint64_t roll = rng.next() % 100;
        if (roll < 55) {
            // Start a rename for a tag without one in flight.
            Addr tag = tagAt(rng.next() % kTags);
            if (!pending.count(tag) && !fl.empty() &&
                mt.hasRoomFor(tag)) {
                pending[tag] = fl.pop();
                ++renames;
            }
        } else if (roll < 80) {
            // Commit a random in-flight rename.
            if (!pending.empty()) {
                uint64_t pick = rng.next() % pending.size();
                auto it = pending.begin();
                std::advance(it, pick);
                commit(it->first);
            }
        } else {
            // Reclaim a random committed entry (randomized eviction
            // order: any mapped tag, not just the LRU victim).
            std::vector<Addr> mapped;
            mt.forEach([&](Addr tag, Addr) {
                if (!pending.count(tag))
                    mapped.push_back(tag);
            });
            if (!mapped.empty()) {
                Addr tag = mapped[rng.next() % mapped.size()];
                auto mapping = mt.peek(tag);
                ASSERT_TRUE(mapping.has_value());
                mt.erase(tag);
                if (*mapping != tag && *mapping >= kReservedBase)
                    fl.push(*mapping);
            }
        }

        // Mid-interval consistency: in-flight pops excused.
        if (renames % 64 == 0) {
            auto lines = check(/*committed=*/false);
            ASSERT_TRUE(lines.empty())
                << "after " << renames << " renames: " << lines[0];
            ++checks;
        }

        // Occasionally drain to a fully committed state and run the
        // strict (no-excuses) audit.
        if (rng.next() % 512 == 0) {
            while (!pending.empty())
                commit(pending.begin()->first);
            auto lines = check(/*committed=*/true);
            ASSERT_TRUE(lines.empty())
                << "committed state after " << renames
                << " renames: " << lines[0];
            ++checks;
        }
    }

    while (!pending.empty())
        commit(pending.begin()->first);
    auto lines = check(/*committed=*/true);
    EXPECT_TRUE(lines.empty());
    EXPECT_GE(renames, 10000u);
    EXPECT_GT(checks, 100u);
}

TEST_F(DeepCheckProperty, LeakedSlotIsReported)
{
    (void)fl.pop(); // popped and never committed nor returned
    auto lines = check(/*committed=*/true);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("leaked"), std::string::npos);

    // The same state is legal mid-interval when the pop is a known
    // in-flight rename.
    pending[tagAt(0)] = kReservedBase;
    EXPECT_TRUE(check(/*committed=*/false).empty());
}

TEST_F(DeepCheckProperty, AliasedMappingIsReported)
{
    Addr slot = fl.pop();
    mt.set(tagAt(0), slot);
    mt.set(tagAt(1), slot);
    auto lines = check(/*committed=*/true);
    ASSERT_FALSE(lines.empty());
    EXPECT_NE(lines[0].find("aliases"), std::string::npos);
}

TEST_F(DeepCheckProperty, DoubleFreeIsReported)
{
    Addr slot = fl.pop();
    (void)fl.pop(); // keep the list under capacity for both pushes
    fl.push(slot);
    fl.push(slot);
    bool found = false;
    for (const auto &l : check(/*committed=*/true))
        found |= l.find("twice") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(DeepCheckProperty, FreeWhileMappedIsReported)
{
    Addr slot = fl.pop();
    mt.set(tagAt(0), slot);
    fl.push(slot); // retired to the free list while still mapped
    bool found = false;
    for (const auto &l : check(/*committed=*/true))
        found |= l.find("also a live mapping") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST_F(DeepCheckProperty, AppBlockOnFreeListNeedsRenameEntry)
{
    (void)fl.pop();
    fl.push(0x100); // app home freed without a rename entry for it
    bool found = false;
    for (const auto &l : check(/*committed=*/true))
        found |= l.find("no rename entry") != std::string::npos;
    EXPECT_TRUE(found);

    // With the entry present the same shape is legal.
    Addr slot = fl.pop();
    ASSERT_EQ(slot, kReservedBase + kBlock); // 0x100 is FIFO-last
    mt.set(0x100, slot);
    for (const auto &l : check(/*committed=*/true))
        EXPECT_EQ(l.find("no rename entry"), std::string::npos) << l;
}

// ----------------------------------------------------------------------
// InvariantSink on synthetic event streams: each checker must fire on
// exactly the stream shape it guards against, and stay quiet on the
// legal variants.
// ----------------------------------------------------------------------

struct SyntheticSink : public ::testing::Test
{
    SystemConfig cfg = SystemConfig::smallPlatform();
    TestMeter meter;
    Nvm nvm{cfg.nvmBytes, cfg.tech, meter};
    std::unique_ptr<IntermittentArch> arch =
        makeArch(ArchKind::Clank, cfg, nvm, meter);
    InvariantSink sink{*arch, cfg};

    void
    emit(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0,
         uint64_t cycle = 100)
    {
        sink.recordAt(cycle, cycle, kind, a0, a1);
    }

    bool
    flagged(const char *checker) const
    {
        for (const auto &v : sink.violations())
            if (v.checker == checker)
                return true;
        return false;
    }
};

TEST_F(SyntheticSink, GbfFalseNegativeFlagged)
{
    emit(EventKind::GbfInsert, 0x200);
    emit(EventKind::GbfQuery, 0x200, /*hit=*/1);
    EXPECT_TRUE(sink.clean());
    emit(EventKind::GbfQuery, 0x200, /*hit=*/0, 123);
    ASSERT_TRUE(flagged("gbf_soundness"));
    EXPECT_EQ(sink.violations().front().cycle, 123u);
    // A false positive on a never-inserted block is legal.
    emit(EventKind::GbfQuery, 0x999, /*hit=*/1);
    EXPECT_EQ(sink.totalViolations(), 1u);
}

TEST_F(SyntheticSink, GbfShadowClearedByResetAndPowerFail)
{
    emit(EventKind::GbfInsert, 0x200);
    emit(EventKind::DominanceReset);
    emit(EventKind::GbfQuery, 0x200, /*hit=*/0);
    EXPECT_TRUE(sink.clean());

    emit(EventKind::GbfInsert, 0x300);
    emit(EventKind::PowerFail);
    emit(EventKind::Restore, 0, /*seq=*/0);
    emit(EventKind::GbfQuery, 0x300, /*hit=*/0);
    EXPECT_TRUE(sink.clean());
}

TEST_F(SyntheticSink, CommitSequenceMustAdvanceByOne)
{
    emit(EventKind::BackupCommit, 0, 1);
    emit(EventKind::BackupCommit, 0, 2);
    EXPECT_TRUE(sink.clean());
    emit(EventKind::BackupCommit, 0, 4); // skipped 3
    EXPECT_TRUE(flagged("backup_monotonicity"));
}

TEST_F(SyntheticSink, RestoreMayRepeatButNeverGoBackward)
{
    emit(EventKind::BackupCommit, 0, 1);
    emit(EventKind::BackupCommit, 0, 2);
    emit(EventKind::PowerFail);
    emit(EventKind::Restore, 0, 2); // same sequence: legal
    // Commit event lost to the crash but the backup was durable:
    // restoring one past the last *observed* commit is legal too.
    emit(EventKind::PowerFail);
    emit(EventKind::Restore, 0, 3);
    EXPECT_TRUE(sink.clean());
    emit(EventKind::PowerFail);
    emit(EventKind::Restore, 0, 1); // committed progress lost
    EXPECT_TRUE(flagged("backup_monotonicity"));
}

TEST_F(SyntheticSink, RollbackOfNonCurrentSequenceFlagged)
{
    emit(EventKind::BackupCommit, 0, 1);
    emit(EventKind::BackupRollback, 0, 2); // dropping the next: legal
    EXPECT_TRUE(sink.clean());
    emit(EventKind::BackupRollback, 0, 5);
    EXPECT_TRUE(flagged("backup_monotonicity"));
}

TEST_F(SyntheticSink, WarReadThenCommittedWriteFlagged)
{
    // CPU reads 4 bytes at 0x400, then the recovery image under them
    // changes during execution: a WAR violation.
    emit(EventKind::MemAccess, 0x400, (0u << 8) | 4);
    emit(EventKind::NvmWrite, 0x400, 0xf, 200);
    ASSERT_TRUE(flagged("war_freedom"));
    EXPECT_EQ(sink.violations().front().cycle, 200u);
}

TEST_F(SyntheticSink, WriteDominatedBytesAreSafe)
{
    emit(EventKind::MemAccess, 0x400, (1u << 8) | 4); // store first
    emit(EventKind::NvmWrite, 0x400, 0xf);
    EXPECT_TRUE(sink.clean());
}

TEST_F(SyntheticSink, BackupEpochWritesAreExempt)
{
    emit(EventKind::MemAccess, 0x400, (0u << 8) | 4);
    emit(EventKind::BackupBegin);
    emit(EventKind::NvmWrite, 0x400, 0xf); // backup machinery
    EXPECT_TRUE(sink.clean());
    // Commit clears the interval: the old read no longer taints.
    emit(EventKind::BackupCommit, 0, 1);
    emit(EventKind::NvmWrite, 0x400, 0xf);
    EXPECT_TRUE(sink.clean());
}

TEST_F(SyntheticSink, RenameAliasingFlaggedEagerly)
{
    emit(EventKind::Rename, /*tag=*/0x100, /*fresh=*/0x8000);
    EXPECT_TRUE(sink.clean());
    emit(EventKind::Rename, /*tag=*/0x200, /*fresh=*/0x8000);
    EXPECT_TRUE(flagged("rename_aliasing"));
}

TEST_F(SyntheticSink, IdealArchitectureSkipsWarChecking)
{
    std::unique_ptr<IntermittentArch> ideal =
        makeArch(ArchKind::Ideal, cfg, nvm, meter);
    InvariantSink is(*ideal, cfg);
    is.recordAt(1, 1, EventKind::MemAccess, 0x400, (0u << 8) | 4);
    is.recordAt(2, 2, EventKind::NvmWrite, 0x400, 0xf);
    EXPECT_TRUE(is.clean());
}

// ----------------------------------------------------------------------
// Full checked runs: clean architectures stay clean (with and without
// crash schedules); the seeded mutation bugs are caught and correctly
// classified.
// ----------------------------------------------------------------------

CheckCase
smallCase(ArchKind arch, PolicyKind policy, double farads,
          uint64_t seed)
{
    CheckCase c;
    c.name = std::string(archKindName(arch)) + "-t" +
             std::to_string(seed);
    c.arch = arch;
    c.policy = policy;
    c.farads = farads;
    c.traceSeed = 40000 + seed;
    c.programText = makeRandomProgram(seed);
    c.programSeed = seed;
    return c;
}

TEST(CheckedRun, CleanAcrossArchitectures)
{
    for (ArchKind arch : {ArchKind::Nvmr, ArchKind::Clank,
                          ArchKind::Hoop, ArchKind::Ideal}) {
        CheckCase c = smallCase(arch, PolicyKind::Jit, 0.1, 11);
        CheckOutcome out = runChecked(c);
        EXPECT_TRUE(out.clean())
            << archKindName(arch) << ": " << out.describe() << "\n"
            << out.detail();
    }
}

TEST(CheckedRun, CleanUnderCrashSchedule)
{
    CheckCase c =
        smallCase(ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6, 12);
    c.faults.enabled = true;
    c.faults.seed = 12;
    c.faults.crashPersists = {40, 180, 600};
    c.faults.crashCycles = {25000};
    CheckOutcome out = runChecked(c);
    EXPECT_TRUE(out.clean()) << out.describe() << "\n" << out.detail();
    EXPECT_GT(out.run.injectedCrashes, 0u);
}

TEST(CheckedRun, SeededRenameAliasCaught)
{
    CheckCase c = smallCase(ArchKind::Nvmr, PolicyKind::Jit, 0.1, 1);
    c.injectedBug = InjectedBug::RenameAlias;
    CheckOutcome out = runChecked(c);
    ASSERT_FALSE(out.clean());
    ASSERT_GT(out.totalViolations, 0u);
    bool eager = false;
    for (const auto &v : out.violations)
        eager |= v.checker == "rename_aliasing" && v.cycle > 0;
    EXPECT_TRUE(eager) << out.detail();
}

TEST(CheckedRun, SeededFreeListLeakCaught)
{
    CheckCase c =
        smallCase(ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6, 1);
    c.injectedBug = InjectedBug::FreeListLeak;
    CheckOutcome out = runChecked(c);
    ASSERT_FALSE(out.clean());
    ASSERT_GT(out.totalViolations, 0u);
    bool leak = false;
    for (const auto &v : out.violations)
        leak |= v.checker == "freelist_conservation" && v.cycle > 0;
    EXPECT_TRUE(leak) << out.detail();
}

// ----------------------------------------------------------------------
// Checking must not perturb the simulation: a checked run and an
// identically configured unchecked run produce bit-identical stats.
// ----------------------------------------------------------------------

class CheckedArch : public ::testing::TestWithParam<ArchKind>
{};

TEST_P(CheckedArch, StatsBitIdenticalToUncheckedRun)
{
    CheckCase c = smallCase(GetParam(), PolicyKind::Watchdog, 500e-6, 2);
    c.faults.enabled = true;
    c.faults.seed = 2;
    c.faults.crashPersists = {90, 400};
    CheckOutcome out = runChecked(c);
    ASSERT_TRUE(out.clean()) << out.describe() << "\n" << out.detail();

    // The same case on the same platform, minus the checker.
    Program prog = assemble(c.name, c.programText);
    CheckPlatform plat(c);
    Simulator sim(prog, c.arch, plat.cfg, *plat.policy, plat.trace,
                  plat.opts);
    EXPECT_TRUE(sameRun(out.run, sim.run()));
}

INSTANTIATE_TEST_SUITE_P(
    Archs, CheckedArch,
    ::testing::Values(ArchKind::Nvmr, ArchKind::Clank, ArchKind::Hoop,
                      ArchKind::Task),
    [](const ::testing::TestParamInfo<ArchKind> &info) {
        return archKindName(info.param);
    });

} // namespace
} // namespace nvmr
