/**
 * @file
 * Unit tests for the NVM map table: capacity, LRU victim selection
 * for reclamation, and update semantics.
 */

#include <gtest/gtest.h>

#include "core/maptable.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct MapTableTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
    MapTable mt{4, tech, meter};
};

TEST_F(MapTableTest, LookupMissAndHit)
{
    EXPECT_FALSE(mt.lookup(0x100).has_value());
    mt.set(0x100, 0x9000);
    auto m = mt.lookup(0x100);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, 0x9000u);
}

TEST_F(MapTableTest, UpdateOverwritesMapping)
{
    mt.set(0x100, 0x9000);
    mt.set(0x100, 0x9010);
    EXPECT_EQ(*mt.lookup(0x100), 0x9010u);
    EXPECT_EQ(mt.size(), 1u);
}

TEST_F(MapTableTest, HasRoomSemantics)
{
    for (Addr a = 0; a < 4; ++a)
        mt.set(a * 16, 0x9000 + a * 16);
    EXPECT_EQ(mt.size(), 4u);
    EXPECT_FALSE(mt.hasRoomFor(0x500));   // new tag, full
    EXPECT_TRUE(mt.hasRoomFor(0));        // existing tag: update ok
}

TEST_F(MapTableTest, EraseFreesCapacity)
{
    for (Addr a = 0; a < 4; ++a)
        mt.set(a * 16, 0x9000 + a * 16);
    mt.erase(16);
    EXPECT_EQ(mt.size(), 3u);
    EXPECT_TRUE(mt.hasRoomFor(0x500));
    EXPECT_FALSE(mt.lookup(16).has_value());
}

TEST_F(MapTableTest, LruVictimIsLeastRecentlyUsed)
{
    mt.set(0x10, 0x9010);
    mt.set(0x20, 0x9020);
    mt.set(0x30, 0x9030);
    // Touch 0x10 and 0x30; 0x20 becomes LRU.
    mt.lookup(0x10);
    mt.lookup(0x30);
    auto victim = mt.lruEntry();
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(victim->first, 0x20u);
    EXPECT_EQ(victim->second, 0x9020u);
}

TEST_F(MapTableTest, LruEmptyTable)
{
    EXPECT_FALSE(mt.lruEntry().has_value());
}

TEST_F(MapTableTest, PeekIsUnaccountedLookup)
{
    mt.set(0x40, 0x9040);
    EXPECT_EQ(*mt.peek(0x40), 0x9040u);
    EXPECT_FALSE(mt.peek(0x50).has_value());
}

} // namespace
} // namespace nvmr
