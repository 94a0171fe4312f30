/**
 * @file
 * Unit tests for the log2-bucketed Histogram: bucket-edge behavior at
 * powers of two, saturation at the last bucket and empty-histogram
 * conventions.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"

namespace nvmr
{
namespace
{

TEST(Histogram, BucketEdgesAtPowersOfTwo)
{
    // Bucket 0 holds [0, 1); bucket i holds [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0.0), 0u);
    EXPECT_EQ(Histogram::bucketOf(0.999), 0u);
    EXPECT_EQ(Histogram::bucketOf(1.0), 1u);
    EXPECT_EQ(Histogram::bucketOf(1.999), 1u);
    EXPECT_EQ(Histogram::bucketOf(2.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(3.0), 2u);
    EXPECT_EQ(Histogram::bucketOf(4.0), 3u);
    EXPECT_EQ(Histogram::bucketOf(1024.0), 11u);
    EXPECT_EQ(Histogram::bucketOf(1025.0), 11u);
    EXPECT_EQ(Histogram::bucketOf(2047.0), 11u);
    EXPECT_EQ(Histogram::bucketOf(2048.0), 12u);
}

TEST(Histogram, BucketEdgesMatchLowHigh)
{
    for (unsigned b = 0; b < 20; ++b) {
        double low = Histogram::bucketLow(b);
        double high = Histogram::bucketHigh(b);
        EXPECT_EQ(Histogram::bucketOf(low), b) << "bucket " << b;
        // The upper edge is exclusive: it belongs to the next bucket.
        EXPECT_EQ(Histogram::bucketOf(high), b + 1) << "bucket " << b;
        EXPECT_LT(low, high);
    }
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(0), 0.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketHigh(0), 1.0);
    EXPECT_DOUBLE_EQ(Histogram::bucketLow(1), 1.0);
}

TEST(Histogram, HugeValuesSaturateLastBucket)
{
    Histogram h("h", "");
    h.sample(1e300);
    EXPECT_EQ(h.bucketCount(Histogram::kMaxBuckets - 1), 1u);
    EXPECT_EQ(h.numBuckets(), Histogram::kMaxBuckets);
}

TEST(Histogram, NegativeSamplesClampToZeroBucket)
{
    Histogram h("h", "");
    h.sample(-5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

TEST(Histogram, EmptyHistogramConventions)
{
    Histogram h("h", "");
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
    EXPECT_DOUBLE_EQ(h.max(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.numBuckets(), 0u);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, MomentsAndCounts)
{
    Histogram h("h", "");
    h.sample(1.0);
    h.sample(3.0);
    h.sample(8.0, 2); // weighted sample
    EXPECT_EQ(h.count(), 4u);
    EXPECT_DOUBLE_EQ(h.sum(), 20.0);
    EXPECT_DOUBLE_EQ(h.mean(), 5.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 8.0);
    EXPECT_EQ(h.bucketCount(1), 1u); // 1.0
    EXPECT_EQ(h.bucketCount(2), 1u); // 3.0
    EXPECT_EQ(h.bucketCount(4), 2u); // 8.0 in [8, 16)
    h.sample(4.0, 0); // zero weight: a no-op
    EXPECT_EQ(h.count(), 4u);
}

TEST(Histogram, PercentileAtBucketResolution)
{
    Histogram h("h", "");
    for (int i = 0; i < 99; ++i)
        h.sample(2.0); // bucket 2: [2, 4)
    h.sample(1000.0); // bucket 10: [512, 1024)
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 4.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1024.0);
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h("h", "");
    h.sample(7.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_EQ(h.numBuckets(), 0u);
    EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

} // namespace
} // namespace nvmr
