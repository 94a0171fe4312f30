/**
 * @file
 * Unit tests for the NVM (Flash) model: persistence, wear counters
 * and access accounting.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mem/nvm.hh"
#include "snapshot/snapshot.hh"
#include "test_meter.hh"

namespace nvmr
{
namespace
{

struct NvmTest : public ::testing::Test
{
    TechParams tech;
    TestMeter meter;
    Nvm nvm{1 << 16, tech, meter};
};

TEST_F(NvmTest, ReadWriteRoundTrip)
{
    nvm.writeWord(0x100, 0xdeadbeef);
    EXPECT_EQ(nvm.readWord(0x100), 0xdeadbeefu);
    EXPECT_EQ(nvm.peekWord(0x100), 0xdeadbeefu);
}

TEST_F(NvmTest, LittleEndianLayout)
{
    nvm.pokeWord(0, 0x11223344);
    EXPECT_EQ(nvm.peekByte(0), 0x44u);
    EXPECT_EQ(nvm.peekByte(3), 0x11u);
}

TEST_F(NvmTest, AccountedAccessesChargeEnergyAndCycles)
{
    nvm.writeWord(0, 1);
    EXPECT_DOUBLE_EQ(meter.energy(), tech.flashWriteWordNj);
    EXPECT_EQ(meter.cycles(), tech.flashWriteCycles);
    nvm.readWord(0);
    EXPECT_DOUBLE_EQ(meter.energy(),
                     tech.flashWriteWordNj + tech.flashReadWordNj);
    EXPECT_EQ(meter.cycles(),
              tech.flashWriteCycles + tech.flashReadCycles);
}

TEST_F(NvmTest, PeekPokeAreFree)
{
    nvm.pokeWord(0, 5);
    nvm.peekWord(0);
    EXPECT_DOUBLE_EQ(meter.energy(), 0.0);
    EXPECT_EQ(nvm.totalWrites(), 0u);
    EXPECT_EQ(nvm.totalReads(), 0u);
}

TEST_F(NvmTest, WearTracksPerWordWrites)
{
    for (int i = 0; i < 5; ++i)
        nvm.writeWord(0x40, i);
    nvm.writeWord(0x44, 1);
    EXPECT_EQ(nvm.wearOf(0x40), 5u);
    EXPECT_EQ(nvm.wearOf(0x42), 5u); // same word
    EXPECT_EQ(nvm.wearOf(0x44), 1u);
    EXPECT_EQ(nvm.maxWear(), 5u);
    EXPECT_EQ(nvm.totalWrites(), 6u);
}

TEST_F(NvmTest, LoadImagePlacesBytes)
{
    std::vector<uint8_t> img = {1, 2, 3, 4, 5};
    nvm.loadImage(0x80, img);
    EXPECT_EQ(nvm.peekByte(0x80), 1u);
    EXPECT_EQ(nvm.peekByte(0x84), 5u);
    EXPECT_EQ(nvm.maxWear(), 0u); // image load has no wear
}

TEST_F(NvmTest, WearPercentileOverWornWords)
{
    // Wear profile: one word at 10, three at 2, rest untouched.
    for (int i = 0; i < 10; ++i)
        nvm.writeWord(0x100, i);
    for (Addr a : {0x200u, 0x204u, 0x208u})
        for (int i = 0; i < 2; ++i)
            nvm.writeWord(a, i);
    EXPECT_EQ(nvm.wornWords(), 4u);
    EXPECT_EQ(nvm.wearPercentile(1.0), 10u);
    EXPECT_EQ(nvm.wearPercentile(0.0), 2u);
    EXPECT_EQ(nvm.wearPercentile(0.5), 2u);
}

TEST_F(NvmTest, WearPercentileEmpty)
{
    EXPECT_EQ(nvm.wearPercentile(0.99), 0u);
    EXPECT_EQ(nvm.wornWords(), 0u);
}

TEST_F(NvmTest, ResetStatsClearsCounters)
{
    nvm.writeWord(0, 1);
    nvm.readWord(0);
    nvm.resetStats();
    EXPECT_EQ(nvm.totalWrites(), 0u);
    EXPECT_EQ(nvm.totalReads(), 0u);
    EXPECT_EQ(nvm.maxWear(), 0u);
    // Contents survive a stats reset.
    EXPECT_EQ(nvm.peekWord(0), 1u);
}

// ---------------------------------------------------------------------
// Sparse wear counters: one chunk per page, allocated on first write
// ---------------------------------------------------------------------

constexpr Addr kPage = CowStore::kPageBytes;

TEST_F(NvmTest, FreshNvmOwnsNoPageAndNoWearChunk)
{
    // O(footprint), not O(capacity): construction allocates nothing
    // per page. Unaccounted writes clone a page but never take wear.
    EXPECT_EQ(nvm.store().ownedPages(), 0u);
    EXPECT_EQ(nvm.wearChunks(), 0u);
    nvm.pokeWord(3 * kPage, 1);
    EXPECT_EQ(nvm.store().ownedPages(), 1u);
    EXPECT_EQ(nvm.wearChunks(), 0u);
    nvm.writeWord(5 * kPage, 1);
    EXPECT_EQ(nvm.store().ownedPages(), 2u);
    EXPECT_EQ(nvm.wearChunks(), 1u);
}

/** Writes word addr `times` times through the accounted path. */
void
wearOut(Nvm &nvm, Addr addr, int times)
{
    for (int i = 0; i < times; ++i)
        nvm.writeWord(addr, i);
}

TEST_F(NvmTest, WearAcrossChunkBoundaries)
{
    // Last word of page 0, first of page 1, one word on page 3, and
    // the last word of the NVM.
    const Addr last = nvm.sizeBytes() - kWordBytes;
    wearOut(nvm, 3 * kPage + 8, 1);
    wearOut(nvm, kPage, 4);
    wearOut(nvm, kPage - kWordBytes, 7);
    wearOut(nvm, last, 2);
    EXPECT_EQ(nvm.wearChunks(), 4u);

    EXPECT_EQ(nvm.wearOf(kPage - kWordBytes), 7u);
    EXPECT_EQ(nvm.wearOf(kPage), 4u);
    EXPECT_EQ(nvm.wearOf(3 * kPage + 8), 1u);
    EXPECT_EQ(nvm.wearOf(last), 2u);
    // Never written: in an allocated chunk and in an unallocated one.
    EXPECT_EQ(nvm.wearOf(kPage + kWordBytes), 0u);
    EXPECT_EQ(nvm.wearOf(2 * kPage), 0u);

    EXPECT_EQ(nvm.maxWear(), 7u);
    EXPECT_EQ(nvm.wornWords(), 4u);
    EXPECT_EQ(nvm.wearPercentile(0.0), 1u);
    EXPECT_EQ(nvm.wearPercentile(0.5), 4u); // round(1.5) -> rank 2
    EXPECT_EQ(nvm.wearPercentile(1.0), 7u);

    // Visited in ascending address order, whatever the write order.
    std::vector<std::pair<Addr, uint64_t>> seen;
    nvm.forEachWornWord(
        [&](Addr a, uint64_t w) { seen.emplace_back(a, w); });
    std::vector<std::pair<Addr, uint64_t>> want = {
        {kPage - kWordBytes, 7}, {kPage, 4}, {3 * kPage + 8, 1},
        {last, 2}};
    EXPECT_EQ(seen, want);
}

TEST_F(NvmTest, WearSaveRestoreAcrossChunks)
{
    wearOut(nvm, kPage - kWordBytes, 3);
    wearOut(nvm, kPage, 5);
    wearOut(nvm, 6 * kPage + 64, 2);
    nvm.readWord(0);
    ByteWriter w;
    nvm.saveState(w);
    std::string blob = w.take();

    // Restore into an NVM with a disjoint worn set: the restored
    // state replaces it entirely.
    TestMeter other_meter;
    Nvm other(1 << 16, tech, other_meter);
    wearOut(other, 9 * kPage, 11);
    wearOut(other, kPage, 1);
    ByteReader r(blob);
    other.restoreState(r);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());

    EXPECT_EQ(other.wearOf(kPage - kWordBytes), 3u);
    EXPECT_EQ(other.wearOf(kPage), 5u);
    EXPECT_EQ(other.wearOf(6 * kPage + 64), 2u);
    EXPECT_EQ(other.wearOf(9 * kPage), 0u);
    EXPECT_EQ(other.wornWords(), 3u);
    EXPECT_EQ(other.maxWear(), 5u);
    EXPECT_EQ(other.totalWrites(), 10u);
    EXPECT_EQ(other.totalReads(), 1u);
    EXPECT_EQ(other.wearPercentile(0.0), 2u);

    // Saving the restored state reproduces the blob byte for byte.
    ByteWriter again;
    other.saveState(again);
    EXPECT_EQ(again.take(), blob);
}

TEST_F(NvmTest, ResetStatsClearsWearAcrossChunks)
{
    wearOut(nvm, kPage - kWordBytes, 3);
    wearOut(nvm, 4 * kPage, 2);
    nvm.resetStats();
    EXPECT_EQ(nvm.wornWords(), 0u);
    EXPECT_EQ(nvm.maxWear(), 0u);
    EXPECT_EQ(nvm.wearOf(kPage - kWordBytes), 0u);
    EXPECT_EQ(nvm.wearOf(4 * kPage), 0u);
    EXPECT_EQ(nvm.wearPercentile(1.0), 0u);
    size_t visited = 0;
    nvm.forEachWornWord([&](Addr, uint64_t) { ++visited; });
    EXPECT_EQ(visited, 0u);

    // Counting starts over from zero on the same words.
    nvm.writeWord(4 * kPage, 1);
    EXPECT_EQ(nvm.wearOf(4 * kPage), 1u);
    EXPECT_EQ(nvm.wornWords(), 1u);
}

TEST_F(NvmTest, RestoreRefusesHugeWearCount)
{
    ByteWriter w;
    w.u64(uint64_t(1) << 60); // wear entries claimed
    w.u32(0);
    w.u32(1);
    std::string blob = w.take();
    ByteReader r(blob);
    // The "N x M" form is the count check's: a restore that trusted
    // the count and only ran out of bytes would not print it.
    EXPECT_DEATH(
        {
            nvm.restoreState(r);
            finishRestore(r);
        },
        "snapshot blob underrun: need [0-9]+ x [0-9]+ bytes");
}

TEST_F(NvmTest, RestoreRefusesOutOfRangeWearIndex)
{
    ByteWriter w;
    w.u64(1);
    w.u32(nvm.sizeBytes() / kWordBytes); // one past the last word
    w.u32(1);
    w.u32(1);
    w.u64(1);
    w.u64(0);
    std::string blob = w.take();
    ByteReader r(blob);
    EXPECT_DEATH({ nvm.restoreState(r); }, "wear index out of range");
}

} // namespace
} // namespace nvmr
