/**
 * @file
 * Unit tests for the write-back data cache and its LBF word-state
 * protocol: geometry, LRU victim selection, fills, composite state.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct CacheTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
    CacheConfig cfg; // Table 2 defaults: 256 B, 8-way, 16 B blocks
    DataCache cache{cfg, tech, meter};

    std::vector<Word>
    block(Word seed)
    {
        std::vector<Word> d(cfg.wordsPerBlock());
        for (size_t i = 0; i < d.size(); ++i)
            d[i] = seed + static_cast<Word>(i);
        return d;
    }
};

TEST_F(CacheTest, GeometryMatchesTable2)
{
    EXPECT_EQ(cfg.numBlocks(), 16u);
    EXPECT_EQ(cfg.numSets(), 2u);
    EXPECT_EQ(cfg.wordsPerBlock(), 4u);
}

TEST_F(CacheTest, MissThenHit)
{
    EXPECT_EQ(cache.lookup(0x100), nullptr);
    CacheLine &v = cache.victim(0x100);
    cache.fill(v, 0x100, block(7));
    CacheLine *hit = cache.lookup(0x100);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->data[0], 7u);
    EXPECT_EQ(hit->data[3], 10u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST_F(CacheTest, VictimPrefersInvalidWays)
{
    for (int i = 0; i < 4; ++i) {
        Addr a = 0x100 + 0x20u * i; // same set (stride 2 blocks)
        CacheLine &v = cache.victim(a);
        EXPECT_FALSE(v.valid);
        cache.fill(v, a, block(i));
    }
    EXPECT_EQ(cache.dirtyCount(), 0u);
}

TEST_F(CacheTest, LruEvictsLeastRecentlyUsed)
{
    // Fill all 8 ways of set 0 (block addresses with even block idx).
    for (int i = 0; i < 8; ++i) {
        Addr a = 0x20u * i;
        cache.fill(cache.victim(a), a, block(i));
    }
    // Touch all but block 0x40 (i = 2).
    for (int i = 0; i < 8; ++i) {
        if (i == 2)
            continue;
        ASSERT_NE(cache.lookup(0x20u * i), nullptr);
    }
    CacheLine &victim = cache.victim(0x200);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.blockAddr, 0x40u);
}

TEST_F(CacheTest, WordStateFirstAccessWinsAndIsSticky)
{
    CacheLine &line = cache.victim(0);
    cache.fill(line, 0, block(0));
    line.touchWord(0, false); // read first
    line.touchWord(0, true);  // later write must not flip it
    line.touchWord(1, true);  // write first
    line.touchWord(1, false);
    EXPECT_EQ(line.lbf[0], WordState::ReadDom);
    EXPECT_EQ(line.lbf[1], WordState::WriteDom);
    EXPECT_EQ(line.lbf[2], WordState::Unknown);
}

TEST_F(CacheTest, CompositeStateIsOrOfReadDominance)
{
    CacheLine &line = cache.victim(0);
    cache.fill(line, 0, block(0));
    EXPECT_FALSE(line.compositeReadDominated());
    line.touchWord(2, true);
    EXPECT_FALSE(line.compositeReadDominated());
    line.touchWord(3, false);
    EXPECT_TRUE(line.compositeReadDominated());
}

TEST_F(CacheTest, MarkAllReadDominated)
{
    CacheLine &line = cache.victim(0);
    cache.fill(line, 0, block(0));
    line.markAllReadDominated();
    EXPECT_TRUE(line.compositeReadDominated());
    for (WordState s : line.lbf)
        EXPECT_EQ(s, WordState::ReadDom);
}

TEST_F(CacheTest, ResetLbfClearsStates)
{
    CacheLine &line = cache.victim(0);
    cache.fill(line, 0, block(0));
    line.touchWord(0, false);
    cache.resetLbf();
    EXPECT_EQ(line.lbf[0], WordState::Unknown);
    EXPECT_FALSE(line.compositeReadDominated());
}

TEST_F(CacheTest, FillResetsDirtyAndLbf)
{
    CacheLine &line = cache.victim(0);
    cache.fill(line, 0, block(0));
    line.markDirty();
    line.dirtyWordMask = 0xf;
    line.touchWord(0, false);
    cache.fill(line, 0x20, block(1));
    EXPECT_FALSE(line.dirty);
    EXPECT_EQ(line.dirtyWordMask, 0u);
    EXPECT_EQ(line.lbf[0], WordState::Unknown);
    EXPECT_EQ(line.blockAddr, 0x20u);
}

TEST_F(CacheTest, InvalidateAllDropsEverything)
{
    cache.fill(cache.victim(0), 0, block(0));
    cache.fill(cache.victim(0x10), 0x10, block(1));
    cache.invalidateAll();
    EXPECT_EQ(cache.lookup(0), nullptr);
    EXPECT_EQ(cache.lookup(0x10), nullptr);
    EXPECT_EQ(cache.dirtyCount(), 0u);
}

TEST_F(CacheTest, DirtyCountTracksDirtyLines)
{
    CacheLine &a = cache.victim(0);
    cache.fill(a, 0, block(0));
    a.markDirty();
    CacheLine &b = cache.victim(0x10);
    cache.fill(b, 0x10, block(1));
    b.markDirty();
    EXPECT_EQ(cache.dirtyCount(), 2u);
}

TEST_F(CacheTest, WordIndexAndAlign)
{
    EXPECT_EQ(cache.blockAlign(0x1237), 0x1230u);
    EXPECT_EQ(cache.wordIndex(0x1234), 1u);
    EXPECT_EQ(cache.wordIndex(0x123c), 3u);
}

/** Geometry sweep: cache behaves for several configurations. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(CacheGeometry, FillAndLookupAllBlocks)
{
    auto [size, block_bytes, ways] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = size;
    cfg.blockBytes = block_bytes;
    cfg.ways = ways;
    TechParams tech;
    TestMeter meter;
    DataCache cache(cfg, tech, meter);

    std::vector<Word> data(cfg.wordsPerBlock(), 5);
    for (uint32_t i = 0; i < cfg.numBlocks(); ++i) {
        Addr a = i * cfg.blockBytes;
        cache.fill(cache.victim(a), a, data);
    }
    for (uint32_t i = 0; i < cfg.numBlocks(); ++i)
        EXPECT_NE(cache.lookup(i * cfg.blockBytes), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(256, 16, 8),
                      std::make_tuple(256, 16, 4),
                      std::make_tuple(512, 16, 8),
                      std::make_tuple(256, 32, 4),
                      std::make_tuple(1024, 16, 2),
                      std::make_tuple(128, 16, 8)));

} // namespace
} // namespace nvmr
