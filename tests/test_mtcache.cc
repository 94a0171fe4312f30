/**
 * @file
 * Unit tests for the map-table cache: set-associative lookup, LRU
 * victims, dirty accounting and the pending-new-tag count that bounds
 * map-table insertions.
 */

#include <gtest/gtest.h>

#include "core/mtcache.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct MtcTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
    MapTableCache mtc{16, 4, tech, meter};
};

TEST_F(MtcTest, MissThenHit)
{
    EXPECT_EQ(mtc.lookup(0x100), nullptr);
    MtcEntry &slot = mtc.victim(0x100);
    mtc.install(slot, 0x100, 0x100, 0x9000, true, false);
    MtcEntry *hit = mtc.lookup(0x100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->oldMap, 0x100u);
    EXPECT_EQ(hit->newMap, 0x9000u);
    EXPECT_TRUE(hit->dirty);
    EXPECT_FALSE(hit->inMapTable);
}

TEST_F(MtcTest, DirtyCountTracksInstallAndMarks)
{
    MtcEntry &a = mtc.victim(0x100);
    mtc.install(a, 0x100, 0x100, 0x9000, true, false);
    EXPECT_EQ(mtc.dirtyCount(), 1u);

    MtcEntry &b = mtc.victim(0x200);
    mtc.install(b, 0x200, 0x200, 0x200, false, true);
    EXPECT_EQ(mtc.dirtyCount(), 1u);

    mtc.markDirty(b);
    EXPECT_EQ(mtc.dirtyCount(), 2u);
    mtc.markDirty(b); // idempotent
    EXPECT_EQ(mtc.dirtyCount(), 2u);
    mtc.markClean(a);
    EXPECT_EQ(mtc.dirtyCount(), 1u);
    mtc.markClean(a);
    EXPECT_EQ(mtc.dirtyCount(), 1u);
}

TEST_F(MtcTest, InvalidateTagAdjustsDirtyCount)
{
    MtcEntry &a = mtc.victim(0x100);
    mtc.install(a, 0x100, 0x100, 0x9000, true, false);
    mtc.invalidateTag(0x100);
    EXPECT_EQ(mtc.dirtyCount(), 0u);
    EXPECT_EQ(mtc.lookup(0x100), nullptr);
}

TEST_F(MtcTest, InvalidateAllResets)
{
    for (Addr a = 0; a < 8; ++a) {
        MtcEntry &s = mtc.victim(a * 16);
        mtc.install(s, a * 16, a * 16, 0x9000 + a * 16, true, false);
    }
    mtc.invalidateAll();
    EXPECT_EQ(mtc.dirtyCount(), 0u);
    EXPECT_EQ(mtc.pendingNewTags(), 0u);
    for (Addr a = 0; a < 8; ++a)
        EXPECT_EQ(mtc.lookup(a * 16), nullptr);
}

TEST_F(MtcTest, PendingNewTagsCountsUnpersistedTags)
{
    MtcEntry &a = mtc.victim(0x100);
    mtc.install(a, 0x100, 0x100, 0x9000, true, false); // new tag
    MtcEntry &b = mtc.victim(0x200);
    mtc.install(b, 0x200, 0x9100, 0x9100, false, true); // from MT
    EXPECT_EQ(mtc.pendingNewTags(), 1u);
}

TEST_F(MtcTest, VictimPrefersInvalid)
{
    MtcEntry &a = mtc.victim(0x100);
    mtc.install(a, 0x100, 0, 0, false, true);
    MtcEntry &b = mtc.victim(0x100);
    EXPECT_FALSE(b.valid);
    EXPECT_NE(&a, &b);
}

TEST_F(MtcTest, FullyAssociativeMode)
{
    // ways == 0 selects fully associative.
    MapTableCache fa(8, 0, tech, meter);
    for (Addr a = 0; a < 8; ++a) {
        MtcEntry &s = fa.victim(a * 16);
        EXPECT_FALSE(s.valid);
        fa.install(s, a * 16, a * 16, a * 16, false, true);
    }
    for (Addr a = 0; a < 8; ++a)
        EXPECT_NE(fa.lookup(a * 16), nullptr);
    // Ninth install must evict the LRU (tag 0, never re-touched).
    MtcEntry &v = fa.victim(0x900);
    EXPECT_TRUE(v.valid);
}

TEST_F(MtcTest, LruWithinSet)
{
    // Fully associative cache makes the LRU order easy to control.
    MapTableCache fa(4, 0, tech, meter);
    for (Addr a = 1; a <= 4; ++a) {
        MtcEntry &s = fa.victim(a * 16);
        fa.install(s, a * 16, 0, 0, false, true);
    }
    fa.lookup(16);  // refresh tag 1
    fa.lookup(48);  // refresh tag 3
    fa.lookup(64);  // refresh tag 4
    MtcEntry &v = fa.victim(0x900);
    EXPECT_EQ(v.tag, 32u); // tag 2 is LRU
}

} // namespace
} // namespace nvmr
