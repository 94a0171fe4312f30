/**
 * @file
 * Tests for the parallel execution engine: deterministic gather
 * order, worker-count independence, nested calls, exception
 * propagation, job-count resolution and the NVMR_JOBS override.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.hh"
#include "par/par.hh"

namespace nvmr
{
namespace
{

/** A deterministic, order-sensitive function of the index. */
uint64_t
mix(size_t i)
{
    uint64_t x = static_cast<uint64_t>(i) * 0x9e3779b97f4a7c15ull + 1;
    x ^= x >> 27;
    return x * 0x2545f4914f6cdd1dull;
}

TEST(Par, HardwareJobsIsPositive)
{
    EXPECT_GE(par::hardwareJobs(), 1u);
    EXPECT_GE(par::defaultJobs(), 1u);
}

TEST(Par, GlobalJobsRoundTrip)
{
    unsigned before = par::globalJobs();
    par::setGlobalJobs(3);
    EXPECT_EQ(par::globalJobs(), 3u);
    par::setGlobalJobs(0); // restore the default resolution
    EXPECT_EQ(par::globalJobs(), par::defaultJobs());
    par::setGlobalJobs(before == par::defaultJobs() ? 0 : before);
}

TEST(Par, ParseJobsValueAcceptsPositiveIntegers)
{
    EXPECT_EQ(par::parseJobsValue("1"), 1u);
    EXPECT_EQ(par::parseJobsValue("8"), 8u);
    EXPECT_EQ(par::parseJobsValue("64"), 64u);
}

TEST(Par, EveryIndexRunsExactlyOnce)
{
    constexpr size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    par::parallelFor(
        n, [&](size_t i) { hits[i].fetch_add(1); }, 8);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Par, GatherOrderIsCanonical)
{
    constexpr size_t n = 513;
    auto out = par::parallelMap<uint64_t>(
        n, [](size_t i) { return mix(i); }, 8);
    ASSERT_EQ(out.size(), n);
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], mix(i)) << "index " << i;
}

TEST(Par, ResultsAreIdenticalAcrossWorkerCounts)
{
    constexpr size_t n = 777;
    auto serial = par::parallelMap<uint64_t>(
        n, [](size_t i) { return mix(i) ^ i; }, 1);
    for (unsigned jobs : {2u, 4u, 8u, 16u}) {
        auto parallel = par::parallelMap<uint64_t>(
            n, [](size_t i) { return mix(i) ^ i; }, jobs);
        EXPECT_EQ(parallel, serial) << "jobs=" << jobs;
    }
}

TEST(Par, NestedParallelForRunsInline)
{
    constexpr size_t outer = 16;
    constexpr size_t inner = 32;
    auto out = par::parallelMap<uint64_t>(
        outer,
        [](size_t i) {
            // The nested call must run inline on this worker (no
            // deadlock, no new pool) and still cover every index.
            EXPECT_TRUE(par::inWorker());
            auto sub = par::parallelMap<uint64_t>(
                inner, [&](size_t j) { return mix(i * inner + j); });
            return std::accumulate(sub.begin(), sub.end(),
                                   uint64_t{0});
        },
        4);
    for (size_t i = 0; i < outer; ++i) {
        uint64_t expect = 0;
        for (size_t j = 0; j < inner; ++j)
            expect += mix(i * inner + j);
        EXPECT_EQ(out[i], expect) << "outer " << i;
    }
}

TEST(Par, LowestIndexExceptionWins)
{
    // Several indices throw; the engine must rethrow the lowest one
    // so failure reports are deterministic across worker counts.
    for (unsigned jobs : {1u, 4u, 8u}) {
        try {
            par::parallelFor(
                100,
                [](size_t i) {
                    if (i == 17 || i == 55 || i == 92)
                        throw std::runtime_error(
                            "idx" + std::to_string(i));
                },
                jobs);
            FAIL() << "no exception at jobs=" << jobs;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "idx17") << "jobs=" << jobs;
        }
    }
}

TEST(Par, EmptyAndSingletonRanges)
{
    int ran = 0;
    par::parallelFor(0, [&](size_t) { ++ran; }, 8);
    EXPECT_EQ(ran, 0);
    par::parallelFor(1, [&](size_t) { ++ran; }, 8);
    EXPECT_EQ(ran, 1);
}

TEST(Par, ProgressIsSideEffectFreeOffTty)
{
    // Progress renders only on a terminal; under ctest it must be a
    // cheap no-op that never perturbs results.
    par::Progress progress("test", 64);
    auto out = par::parallelMap<uint64_t>(
        64, [](size_t i) { return mix(i); }, 4, &progress);
    progress.finish();
    for (size_t i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], mix(i));
}

TEST(ParDeathTest, FatalOnAWorkerExitsWithUsageCode)
{
    // fatal() on a pool thread must leave with exit 2 like it does on
    // the main thread, not abort while the exit path joins the pool.
    // The calling thread parks, so the fatal call runs on a worker.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            std::thread::id caller = std::this_thread::get_id();
            par::parallelFor(
                8,
                [&](size_t) {
                    if (std::this_thread::get_id() != caller)
                        fatal("worker failed");
                    for (;;)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(10));
                },
                4);
        },
        ::testing::ExitedWithCode(2), "fatal: worker failed");
}

} // namespace
} // namespace nvmr
