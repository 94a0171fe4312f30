/**
 * @file
 * Unit tests for the global bloom filter: the no-false-negative
 * guarantee (which intermittent correctness depends on), reset
 * behaviour and occupancy.
 */

#include <gtest/gtest.h>

#include "common/xorshift.hh"
#include "mem/bloom.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct BloomTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
};

TEST_F(BloomTest, EmptyFilterContainsNothing)
{
    BloomFilter bf(8, 1, tech, meter);
    for (Addr a = 0; a < 64; a += 16)
        EXPECT_FALSE(bf.maybeContains(a));
    EXPECT_DOUBLE_EQ(bf.occupancy(), 0.0);
}

TEST_F(BloomTest, NeverFalseNegative)
{
    // The safety property: an inserted block address must always hit.
    BloomFilter bf(8, 1, tech, meter);
    XorShift rng(99);
    std::vector<Addr> inserted;
    for (int i = 0; i < 50; ++i) {
        Addr a = static_cast<Addr>(rng.range(0, 1 << 20)) & ~0xfu;
        bf.insert(a);
        inserted.push_back(a);
        for (Addr b : inserted)
            EXPECT_TRUE(bf.maybeContains(b));
    }
}

TEST_F(BloomTest, ResetClearsAllBits)
{
    BloomFilter bf(8, 1, tech, meter);
    bf.insert(0x10);
    bf.insert(0x20);
    EXPECT_GT(bf.occupancy(), 0.0);
    bf.reset();
    EXPECT_DOUBLE_EQ(bf.occupancy(), 0.0);
    // After reset the bits are clear; specific keys may or may not
    // collide, but at least directly-checked ones must miss.
    EXPECT_FALSE(bf.maybeContains(0x10));
    EXPECT_FALSE(bf.maybeContains(0x20));
}

TEST_F(BloomTest, TinyFilterSaturates)
{
    // Table 2's GBF is only 8 bits: with many inserts it should
    // approach full occupancy (everything looks read-dominated),
    // which is conservative but correct.
    BloomFilter bf(8, 1, tech, meter);
    for (Addr a = 0; a < 4096; a += 16)
        bf.insert(a);
    EXPECT_GT(bf.occupancy(), 0.9);
}

TEST_F(BloomTest, MultipleHashFunctions)
{
    BloomFilter bf(64, 3, tech, meter);
    bf.insert(0x40);
    EXPECT_TRUE(bf.maybeContains(0x40));
    // With 3 hashes in 64 bits, a fresh filter should reject most
    // other keys.
    int fp = 0;
    for (Addr a = 0x1000; a < 0x1000 + 100 * 16; a += 16)
        fp += bf.maybeContains(a);
    EXPECT_LT(fp, 20);
}

/** Property sweep: no false negatives across sizes and hash counts. */
class BloomProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(BloomProperty, InsertedKeysAlwaysHit)
{
    auto [bits, hashes] = GetParam();
    TechParams tech;
    TestMeter meter;
    BloomFilter bf(bits, hashes, tech, meter);
    XorShift rng(bits * 1000 + hashes);
    std::vector<Addr> keys;
    for (int i = 0; i < 200; ++i) {
        Addr a = static_cast<Addr>(rng.range(0, 1 << 24)) & ~0xfu;
        bf.insert(a);
        keys.push_back(a);
    }
    for (Addr a : keys)
        EXPECT_TRUE(bf.maybeContains(a));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BloomProperty,
    ::testing::Combine(::testing::Values(8, 16, 64, 256),
                       ::testing::Values(1, 2, 4)));

} // namespace
} // namespace nvmr
