/**
 * @file
 * Unit tests for the NvMR free list: FIFO behaviour, pointer
 * persistence and the power-loss rollback of un-persisted pops.
 */

#include <gtest/gtest.h>

#include "core/freelist.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct FreeListTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
    FreeList fl{8, tech, meter};

    void
    fill(uint32_t n = 8)
    {
        fl.initFill(0x1000, 16, n);
    }
};

TEST_F(FreeListTest, InitFillPopulatesReservedMappings)
{
    fill(4);
    EXPECT_EQ(fl.size(), 4u);
    EXPECT_EQ(fl.pop(), 0x1000u);
    EXPECT_EQ(fl.pop(), 0x1010u);
    EXPECT_EQ(fl.pop(), 0x1020u);
    EXPECT_EQ(fl.pop(), 0x1030u);
    EXPECT_TRUE(fl.empty());
}

TEST_F(FreeListTest, PushPopFifoOrder)
{
    fill(2);
    fl.pop();
    fl.pop();
    fl.push(0xaa0);
    fl.push(0xbb0);
    EXPECT_EQ(fl.pop(), 0xaa0u);
    EXPECT_EQ(fl.pop(), 0xbb0u);
}

TEST_F(FreeListTest, PowerLossRollsBackUnpersistedPops)
{
    fill(4);
    fl.pop();
    fl.pop();
    EXPECT_EQ(fl.size(), 2u);
    // No persistPointers since initFill: a power loss restores all 4.
    fl.restorePointers();
    EXPECT_EQ(fl.size(), 4u);
    EXPECT_EQ(fl.pop(), 0x1000u); // the same mappings come back out
}

TEST_F(FreeListTest, PersistPointersCommitsPops)
{
    fill(4);
    fl.pop();
    fl.persistPointers();
    fl.pop();
    fl.restorePointers();
    EXPECT_EQ(fl.size(), 3u);
    EXPECT_EQ(fl.pop(), 0x1010u);
}

TEST_F(FreeListTest, PushesAtBackupArePersistedWithPointers)
{
    fill(2);
    fl.pop();
    fl.pop();
    // Backup: pushes followed by pointer persist.
    fl.push(0x2000);
    fl.persistPointers();
    fl.restorePointers();
    EXPECT_EQ(fl.size(), 1u);
    EXPECT_EQ(fl.pop(), 0x2000u);
}

TEST_F(FreeListTest, WrapAroundRing)
{
    fill(8);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 8; ++i) {
            Addr a = fl.pop();
            fl.push(a);
        }
        fl.persistPointers();
    }
    EXPECT_EQ(fl.size(), 8u);
}

TEST_F(FreeListTest, FullAndEmptyFlags)
{
    fill(8);
    EXPECT_TRUE(fl.full());
    EXPECT_FALSE(fl.empty());
    for (int i = 0; i < 8; ++i)
        fl.pop();
    EXPECT_TRUE(fl.empty());
    EXPECT_FALSE(fl.full());
}

TEST_F(FreeListTest, PersistCostIsTwoWordWrites)
{
    NanoJoules expect =
        2 * (tech.flashWriteWordNj +
             static_cast<double>(tech.flashWriteCycles) *
                 tech.cpuCycleNj);
    EXPECT_DOUBLE_EQ(fl.persistPointersCostNj(), expect);
}

} // namespace
} // namespace nvmr
