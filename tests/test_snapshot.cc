/**
 * @file
 * Unit tests for the snapshot subsystem (src/snapshot/): CowStore
 * copy-on-write semantics (fork isolation, page-refcount release,
 * snapshot-of-fork chains), the ByteWriter/ByteReader blob format,
 * and Simulator-level capture/restore byte-identity on a real
 * workload. The cross-engine matrix lives in the separate
 * `snapshot-equivalence` test.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "arch_harness.hh"
#include "check/invariants.hh"
#include "core/maptable.hh"
#include "isa/assembler.hh"
#include "power/policy.hh"
#include "run_identity.hh"
#include "sim/simulator.hh"
#include "snapshot/cow.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

constexpr size_t kPage = CowStore::kPageBytes;

/** Three pages plus a partial fourth: exercises the tail page. */
constexpr size_t kStoreBytes = 3 * kPage + 512;

} // namespace

// ---------------------------------------------------------------------
// CowStore basics
// ---------------------------------------------------------------------

TEST(CowStore, GeometryAndZeroFill)
{
    CowStore store(kStoreBytes);
    EXPECT_EQ(store.sizeBytes(), kStoreBytes);
    EXPECT_EQ(store.pageCount(), 4u);
    // A fresh store owns no page: every page is the shared zero page,
    // which has no control block, and reads back zero.
    EXPECT_EQ(store.ownedPages(), 0u);
    for (size_t i = 0; i < store.pageCount(); ++i) {
        EXPECT_TRUE(store.isZeroPage(i)) << "page " << i;
        EXPECT_EQ(store.pageUseCount(i), 0) << "page " << i;
    }
    EXPECT_EQ(store.read8(0), 0u);
    EXPECT_EQ(store.read8(kStoreBytes - 1), 0u);
    EXPECT_EQ(store.readWord(kPage), 0u);
}

TEST(CowStoreDeathTest, ZeroPageIsReadOnly)
{
    // The zero page lives in read-only memory: a write that bypassed
    // the copy-on-write clone faults instead of silently changing
    // every store's view of untouched NVM.
    CowStore store(kPage);
    ASSERT_TRUE(store.isZeroPage(0));
    volatile uint8_t *zero = store.pageTable()[0]->data.data();
    EXPECT_DEATH({ zero[0] = 1; }, "");
    EXPECT_EQ(store.read8(0), 0u);
}

TEST(CowStore, FirstWriteClonesOnlyThatPage)
{
    CowStore a(kStoreBytes);
    a.write8(kPage + 5, 7);
    EXPECT_EQ(a.ownedPages(), 1u);
    EXPECT_FALSE(a.isZeroPage(1));
    EXPECT_EQ(a.pageUseCount(1), 1);
    for (size_t i : {0u, 2u, 3u})
        EXPECT_TRUE(a.isZeroPage(i)) << "page " << i;
    EXPECT_EQ(a.read8(kPage + 5), 7u);
    EXPECT_EQ(a.read8(kPage + 4), 0u); // the clone starts zeroed

    // The write reached a's clone, never the shared zero page.
    CowStore b(kStoreBytes);
    EXPECT_EQ(b.read8(kPage + 5), 0u);
    EXPECT_EQ(b.ownedPages(), 0u);
}

TEST(CowStore, ByteAndWordRoundTrip)
{
    CowStore store(kStoreBytes);
    store.write8(5, 0xab);
    EXPECT_EQ(store.read8(5), 0xab);

    // Words are little-endian over the same byte space.
    store.writeWord(8, 0x11223344u);
    EXPECT_EQ(store.readWord(8), 0x11223344u);
    EXPECT_EQ(store.read8(8), 0x44);
    EXPECT_EQ(store.read8(11), 0x11);
}

TEST(CowStore, WriteBytesSpansPages)
{
    CowStore store(kStoreBytes);
    std::vector<uint8_t> pattern(kPage + 100);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint8_t>(i * 7 + 1);
    // Straddles the page 0 / page 1 boundary.
    Addr base = kPage - 50;
    store.writeBytes(base, pattern.data(), pattern.size());
    for (size_t i = 0; i < pattern.size(); ++i)
        EXPECT_EQ(store.read8(base + i), pattern[i]) << i;
}

// ---------------------------------------------------------------------
// COW sharing and fork isolation
// ---------------------------------------------------------------------

TEST(CowStore, SnapshotSharesPagesUntilFirstWrite)
{
    CowStore store(kStoreBytes);
    store.write8(0, 1);
    store.write8(kPage, 2);

    CowStore::PageTable snap = store.snapshotPages();
    // Every page is now shared between the store and the snapshot:
    // the written ones through a refcount, the rest as the zero page.
    EXPECT_EQ(store.ownedPages(), 0u);
    for (size_t i : {0u, 1u})
        EXPECT_EQ(store.pageUseCount(i), 2) << "page " << i;
    for (size_t i : {2u, 3u}) {
        EXPECT_TRUE(store.isZeroPage(i)) << "page " << i;
        EXPECT_EQ(snap[i].get(), snap[2].get()) << "page " << i;
    }

    // First write to page 0 clones it; the other pages stay shared.
    store.write8(3, 99);
    EXPECT_EQ(store.ownedPages(), 1u);
    EXPECT_EQ(store.pageUseCount(0), 1);
    EXPECT_EQ(store.pageUseCount(1), 2);

    // The snapshot still sees the pre-write contents.
    EXPECT_EQ(snap[0]->data[3], 0u);
    EXPECT_EQ(snap[0]->data[0], 1u);
    EXPECT_EQ(store.read8(3), 99u);

    // A second write to an already-owned page does not clone again.
    auto *before = snap[0].get();
    store.write8(4, 100);
    EXPECT_EQ(snap[0].get(), before);
    EXPECT_EQ(store.ownedPages(), 1u);

    // A write to a zero page clones it the same way; the snapshot
    // keeps the zero page.
    store.write8(2 * kPage, 5);
    EXPECT_EQ(store.ownedPages(), 2u);
    EXPECT_FALSE(store.isZeroPage(2));
    EXPECT_EQ(snap[2]->data[0], 0u);
}

TEST(CowStore, ForkIsolation)
{
    CowStore a(kStoreBytes);
    a.writeWord(0, 0xdeadbeefu);
    a.writeWord(kPage, 0x12345678u);

    CowStore::PageTable snap = a.snapshotPages();
    CowStore b(kStoreBytes);
    b.adoptPages(snap);

    // The fork starts byte-identical to the parent.
    EXPECT_EQ(b.readWord(0), 0xdeadbeefu);
    EXPECT_EQ(b.readWord(kPage), 0x12345678u);
    EXPECT_EQ(b.ownedPages(), 0u);

    // Divergent writes at the same address stay isolated, and the
    // captured snapshot itself never changes.
    a.writeWord(0, 0xaaaaaaaau);
    b.writeWord(0, 0xbbbbbbbbu);
    EXPECT_EQ(a.readWord(0), 0xaaaaaaaau);
    EXPECT_EQ(b.readWord(0), 0xbbbbbbbbu);
    EXPECT_EQ(snap[0]->data[0], 0xefu); // low byte of 0xdeadbeef

    // Pages neither side touched are still shared three ways
    // (a, b, snap).
    EXPECT_EQ(a.pageUseCount(1), 3);
}

TEST(CowStore, RefcountReleasesWhenSnapshotDropped)
{
    CowStore store(kStoreBytes);
    store.write8(0, 1);
    store.write8(2 * kPage, 3);
    {
        CowStore::PageTable snap = store.snapshotPages();
        EXPECT_EQ(store.pageUseCount(0), 2);
        EXPECT_EQ(store.pageUseCount(2), 2);
    }
    // Dropping the table releases every shared reference to the
    // written pages; the zero pages never held one.
    for (size_t i : {0u, 2u})
        EXPECT_EQ(store.pageUseCount(i), 1) << "page " << i;
    for (size_t i : {1u, 3u})
        EXPECT_EQ(store.pageUseCount(i), 0) << "page " << i;
}

TEST(CowStore, SnapshotOfForkChain)
{
    CowStore a(kStoreBytes);
    a.write8(0, 10);
    a.write8(kPage, 20);

    CowStore::PageTable t1 = a.snapshotPages();
    CowStore b(kStoreBytes);
    b.adoptPages(t1);
    b.write8(0, 11); // b diverges on page 0 only

    CowStore::PageTable t2 = b.snapshotPages();
    CowStore c(kStoreBytes);
    c.adoptPages(t2);

    // The grandchild sees b's divergence plus a's untouched data.
    EXPECT_EQ(c.read8(0), 11u);
    EXPECT_EQ(c.read8(kPage), 20u);

    // Page 1 was never cloned: a, b, c, t1 and t2 all share it.
    EXPECT_EQ(a.pageUseCount(1), 5);

    // Writes in the grandchild reach neither ancestor nor snapshot.
    c.write8(kPage, 21);
    EXPECT_EQ(b.read8(kPage), 20u);
    EXPECT_EQ(a.read8(kPage), 20u);
    EXPECT_EQ(t2[1]->data[0], 20u);
}

TEST(CowStore, ConcurrentForksOfOneSnapshot)
{
    // Four workers fork one snapshot at once and each dirties its own
    // pages: zero pages of the snapshot (aliases with no control
    // block) and one page it shares by refcount. Under TSan this pins
    // that sharing either kind of page across threads is race-free.
    constexpr unsigned kThreads = 4;
    constexpr size_t kPages = 2 * kThreads + 1;
    CowStore base(kPages * kPage);
    base.writeWord(0, 0x5eed5eedu);
    const CowStore::PageTable snap = base.snapshotPages();

    std::vector<int> ok(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            CowStore fork(kPages * kPage);
            fork.adoptPages(snap);
            Addr mine = (1 + 2 * t) * kPage;
            fork.writeWord(mine, t + 1);
            fork.writeWord(mine + kPage, t + 100);
            fork.writeWord(4, t); // page 0: shared by refcount
            bool good = fork.readWord(0) == 0x5eed5eedu &&
                        fork.readWord(4) == t &&
                        fork.readWord(mine) == t + 1 &&
                        fork.readWord(mine + kPage) == t + 100 &&
                        fork.ownedPages() == 3;
            // Every other worker's pages still read zero here.
            for (size_t p = 1; p < kPages; ++p)
                if (p * kPage != mine && p * kPage != mine + kPage)
                    good = good && fork.readWord(p * kPage) == 0;
            ok[t] = good;
        });
    }
    for (std::thread &th : threads)
        th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_TRUE(ok[t]) << "worker " << t;

    // The snapshot is untouched by any fork.
    CowStore check(kPages * kPage);
    check.adoptPages(snap);
    EXPECT_EQ(check.readWord(0), 0x5eed5eedu);
    EXPECT_EQ(check.readWord(4), 0u);
    for (size_t p = 1; p < kPages; ++p)
        EXPECT_TRUE(check.isZeroPage(p)) << "page " << p;
}

TEST(CowStore, SamePageContents)
{
    CowStore a(kStoreBytes), b(kStoreBytes);
    // Fresh stores: every page is the same zero page.
    EXPECT_TRUE(samePageContents(a.pageTable(), b.pageTable()));

    // Equal bytes in distinct page objects compare equal.
    a.writeWord(kPage + 8, 0xcafef00du);
    b.writeWord(kPage + 8, 0xcafef00du);
    EXPECT_TRUE(samePageContents(a.pageTable(), b.pageTable()));

    // A written page that still holds zeros equals the zero page.
    a.write8(2 * kPage, 0);
    EXPECT_TRUE(samePageContents(a.pageTable(), b.pageTable()));

    // A one-byte difference in one page is reported.
    b.write8(kPage + 4095, 1);
    EXPECT_FALSE(samePageContents(a.pageTable(), b.pageTable()));
    EXPECT_FALSE(samePageContents(b.pageTable(), a.pageTable()));

    // A fork shares its parent's pages by pointer until it writes.
    CowStore c(kStoreBytes);
    c.adoptPages(b.snapshotPages());
    EXPECT_TRUE(samePageContents(b.pageTable(), c.pageTable()));
    c.write8(3 * kPage + 7, 9);
    EXPECT_FALSE(samePageContents(b.pageTable(), c.pageTable()));

    // Tables of different geometry never compare equal.
    CowStore small(kPage);
    EXPECT_FALSE(samePageContents(small.pageTable(), a.pageTable()));
}

// ---------------------------------------------------------------------
// Snapshot blobs through ByteWriter / ByteReader
// ---------------------------------------------------------------------

namespace
{

struct PodSample
{
    uint32_t a;
    double b;
    uint8_t c;
};

// The "N x M" form of the message is the count check's, so a restore
// loop that trusts a count and only runs out of bytes part-way (plain
// "need M bytes") does not pass these.
constexpr const char *kCountUnderrun =
    "snapshot blob underrun: need [0-9]+ x [0-9]+ bytes";
constexpr uint64_t kHugeCount = uint64_t(1) << 60;

/** Overwrite the u64 count field at `at`, which must read 0. */
void
patchCount(std::string &blob, size_t at)
{
    ASSERT_LE(at + sizeof(uint64_t), blob.size());
    uint64_t old = 1;
    std::memcpy(&old, blob.data() + at, sizeof(old));
    ASSERT_EQ(old, 0u) << "count field not at offset " << at;
    std::memcpy(blob.data() + at, &kHugeCount, sizeof(kHugeCount));
}

/** An architecture's state blob after the harness's initial backup. */
std::string
archBlob(ArchKind kind)
{
    ArchHarness h(kind);
    ByteWriter w;
    h.arch->saveState(w);
    return w.take();
}

/** Run `restore` and end it the way the snapshot entry points do, so
 *  a refused count panics with its latched message. The alarm makes a
 *  restore loop that trusted a huge count, and spins on the reader's
 *  zeros, die without that message instead of hanging. */
template <typename Restore>
void
restoreAsEntryPoint(const ByteReader &r, Restore restore)
{
    alarm(10);
    restore();
    finishRestore(r);
}

} // namespace

TEST(StateBlob, RoundTrip)
{
    ByteWriter w;
    w.u8(0x5a);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.f64(3.25);
    w.boolean(true);
    w.boolean(false);
    w.str("hello snapshot");
    w.str("");
    std::vector<uint64_t> xs = {1, 2, 3, 0xffffffffffffffffull};
    w.vec(xs);
    w.vec(std::vector<uint32_t>{});
    PodSample s{7, -1.5, 9};
    w.pod(s);

    std::string blob = w.take();
    ByteReader r(blob);
    EXPECT_EQ(r.u8(), 0x5a);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.f64(), 3.25);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "hello snapshot");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.vec<uint64_t>(), xs);
    EXPECT_TRUE(r.vec<uint32_t>().empty());
    PodSample back = r.pod<PodSample>();
    EXPECT_EQ(back.a, 7u);
    EXPECT_EQ(back.b, -1.5);
    EXPECT_EQ(back.c, 9u);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

TEST(StateBlob, UnderrunPanics)
{
    ByteWriter w;
    w.u8(1);
    w.u8(2);
    std::string blob = w.take();
    ByteReader r(blob);
    EXPECT_EQ(r.u8(), 1u);
    // A read past the end latches the first failure and reads zeros
    // from then on, even where bytes are left.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "need 8 bytes, have 1");
    EXPECT_DEATH(finishRestore(r),
                 "snapshot blob underrun: need 8 bytes, have 1");
}

TEST(StateBlob, TrailingBytesPanic)
{
    ByteWriter w;
    w.u32(1);
    std::string blob = w.take();
    ByteReader r(blob);
    EXPECT_EQ(r.u8(), 1u);
    EXPECT_TRUE(r.ok());
    EXPECT_DEATH(finishRestore(r), "snapshot blob has trailing bytes");
}

TEST(StateBlob, HugeCountFieldsPanicBeforeAllocating)
{
    // Count fields far beyond a short blob: refused before any
    // allocation, and without n * sizeof(T) wrapping to a small size.
    ByteWriter sw;
    sw.u32(UINT32_MAX);
    sw.u64(0);
    std::string str_blob = sw.take();
    ByteWriter vw;
    vw.u64(kHugeCount);
    vw.u64(0);
    std::string vec_blob = vw.take();
    {
        ByteReader r(str_blob);
        EXPECT_TRUE(r.str().empty());
        EXPECT_EQ(r.error(), "need 4294967295 x 1 bytes, have 8");
        EXPECT_DEATH(finishRestore(r), kCountUnderrun);
    }
    {
        ByteReader r(vec_blob);
        EXPECT_EQ(r.vec<uint64_t>().capacity(), 0u);
        EXPECT_DEATH(finishRestore(r), kCountUnderrun);
    }
    {
        // 2^60 x 16 bytes wraps to 0 in 64 bits.
        ByteReader r(vec_blob);
        struct Wide
        {
            uint64_t a, b;
        };
        EXPECT_EQ(r.vec<Wide>().capacity(), 0u);
        EXPECT_EQ(r.error(), "need 1152921504606846976 x 16 bytes, "
                             "have 8");
        EXPECT_DEATH(finishRestore(r), kCountUnderrun);
    }
}

// The per-entry restore loops refuse a count field the rest of the
// blob cannot hold before reading any entry.

TEST(StateBlob, HugeStuckCellCountPanics)
{
    ByteWriter w;
    w.pod(FaultStats{});
    w.u64(1); // rng
    w.u64(kHugeCount);
    w.u64(0);
    std::string blob = w.take();
    FaultInjector inj;
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { inj.restoreState(r, 0); }),
        kCountUnderrun);
}

TEST(StateBlob, HugeMapTableCountPanics)
{
    ByteWriter w;
    w.u64(kHugeCount);
    w.u64(0); // tick
    std::string blob = w.take();
    TechParams tech;
    TestMeter meter;
    MapTable mt{4, tech, meter};
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { mt.restoreState(r); }),
        kCountUnderrun);
}

// HOOP's blob ends with its out-of-place buffer, buffer index and
// committed log (all empty after the initial backup), then 24 bytes:
// bufGroups, bufLastBlock, regionFill and gcs.
TEST(StateBlob, HugeHoopBufferCountPanics)
{
    std::string blob = archBlob(ArchKind::Hoop);
    patchCount(blob, blob.size() - 24 - 3 * sizeof(uint64_t));
    ArchHarness h(ArchKind::Hoop);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { h.arch->restoreState(r); }),
        kCountUnderrun);
}

TEST(StateBlob, HugeHoopBufferIndexCountPanics)
{
    std::string blob = archBlob(ArchKind::Hoop);
    patchCount(blob, blob.size() - 24 - 2 * sizeof(uint64_t));
    ArchHarness h(ArchKind::Hoop);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { h.arch->restoreState(r); }),
        kCountUnderrun);
}

TEST(StateBlob, HugeHoopCommittedLogCountPanics)
{
    std::string blob = archBlob(ArchKind::Hoop);
    patchCount(blob, blob.size() - 24 - sizeof(uint64_t));
    ArchHarness h(ArchKind::Hoop);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { h.arch->restoreState(r); }),
        kCountUnderrun);
}

// Clank-original's blob ends with its read-first and write-first
// address sets, both empty after the initial backup.
TEST(StateBlob, HugeClankOriginalAddressSetCountPanics)
{
    for (size_t from_end : {2 * sizeof(uint64_t), sizeof(uint64_t)}) {
        std::string blob = archBlob(ArchKind::ClankOriginal);
        patchCount(blob, blob.size() - from_end);
        ArchHarness h(ArchKind::ClankOriginal);
        ByteReader r(blob);
        EXPECT_DEATH(
            restoreAsEntryPoint(r, [&] { h.arch->restoreState(r); }),
            kCountUnderrun)
            << from_end << " bytes from the end";
    }
}

// NvMR's blob ends with its rename depths (empty after the initial
// backup), two histograms, two bools and three addresses.
TEST(StateBlob, HugeRenameDepthCountPanics)
{
    std::string blob = archBlob(ArchKind::Nvmr);
    const size_t tail = 2 * sizeof(Histogram::Raw) + 2 + 3 * sizeof(Addr);
    patchCount(blob, blob.size() - tail - sizeof(uint64_t));
    ArchHarness h(ArchKind::Nvmr);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { h.arch->restoreState(r); }),
        kCountUnderrun);
}

TEST(StateBlob, HugeInvariantAddressSetCountPanics)
{
    ByteWriter w;
    w.u8(0);  // epoch
    w.u64(0); // lastCommitted
    w.u64(kHugeCount); // gbfShadow
    std::string blob = w.take();
    ArchHarness h(ArchKind::Clank);
    InvariantSink sink(*h.arch, h.cfg);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { sink.restoreState(r); }),
        kCountUnderrun);
}

TEST(StateBlob, HugeInvariantAddressMapCountPanics)
{
    ByteWriter w;
    w.u8(0);  // epoch
    w.u64(0); // lastCommitted
    for (int set = 0; set < 3; ++set)
        w.u64(0); // gbfShadow, readFirst, writeFirst
    w.u64(kHugeCount); // volatileRenames
    std::string blob = w.take();
    ArchHarness h(ArchKind::Clank);
    InvariantSink sink(*h.arch, h.cfg);
    ByteReader r(blob);
    EXPECT_DEATH(
        restoreAsEntryPoint(r, [&] { sink.restoreState(r); }),
        kCountUnderrun);
}

TEST(StateBlob, EveryStrictPrefixOfAnArchBlobLatches)
{
    // Cut anywhere, an architecture's blob restores to a latched
    // failure: never a read past the end, never a panic of its own.
    for (ArchKind kind : {ArchKind::Clank, ArchKind::ClankOriginal,
                          ArchKind::Task, ArchKind::Nvmr,
                          ArchKind::Hoop}) {
        const std::string blob = archBlob(kind);
        ArchHarness h(kind);
        for (size_t n = 0; n < blob.size(); ++n) {
            ByteReader r(blob.data(), n);
            h.arch->restoreState(r);
            EXPECT_FALSE(r.ok())
                << archKindName(kind) << " prefix of " << n << " bytes";
        }
        ByteReader r(blob);
        h.arch->restoreState(r);
        EXPECT_TRUE(r.ok() && r.atEnd()) << archKindName(kind);
    }
}

// ---------------------------------------------------------------------
// Simulator capture / restore
// ---------------------------------------------------------------------

namespace
{

/** Final-state fingerprint for byte-identity checks. */
struct Final
{
    RunResult result;
    std::vector<uint8_t> nvm;
    std::array<Word, kNumRegs> regs{};
    uint32_t pc = 0;
};

Final
fingerprint(Simulator &sim, const RunResult &r)
{
    Final f;
    f.result = r;
    f.nvm.reserve(sim.nvmRef().sizeBytes());
    for (Addr b = 0; b < sim.nvmRef().sizeBytes(); ++b)
        f.nvm.push_back(sim.nvmRef().peekByte(b));
    for (unsigned i = 0; i < kNumRegs; ++i)
        f.regs[i] = sim.cpuRef().reg(i);
    f.pc = sim.cpuRef().pc();
    return f;
}

void
expectIdentical(const Final &a, const Final &b, const char *what)
{
    EXPECT_TRUE(sameRun(a.result, b.result)) << what;
    EXPECT_EQ(a.nvm, b.nvm) << what << " NVM image";
    EXPECT_EQ(a.regs, b.regs) << what << " registers";
    EXPECT_EQ(a.pc, b.pc) << what << " pc";
}

} // namespace

TEST(SnapshotSim, NvmFootprintFollowsTheProgram)
{
    // A full validated hist/nvmr run touches a handful of the 2 MiB
    // NVM's 512 pages (15 today: image, data, rename region, backup
    // slots): the COW store clones only those, and wear chunks exist
    // only for pages that took an accounted write.
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    Simulator sim(prog, ArchKind::Nvmr, cfg, jit, trace, RunOptions{});
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed && r.validated);
    const Nvm &nvm = sim.nvmRef();
    ASSERT_EQ(nvm.store().pageCount(), 512u);
    EXPECT_GT(nvm.store().ownedPages(), 0u);
    EXPECT_LE(nvm.store().ownedPages(), 32u);
    EXPECT_GT(nvm.wearChunks(), 0u);
    EXPECT_LE(nvm.wearChunks(), nvm.store().ownedPages());
}

TEST(SnapshotSim, CollectingSinkStride)
{
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);

    RunOptions opts;
    opts.validate = false;
    CollectingSnapshotSink all(1);
    opts.snapshots = &all;
    {
        Simulator sim(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
        ASSERT_TRUE(sim.run().completed);
    }
    ASSERT_GT(all.pointsSeen, 4u);
    EXPECT_EQ(all.snapshots.size(), all.pointsSeen);

    // Stride 3 keeps safe points 0, 3, 6, ... of the same run and
    // still counts every safe point seen.
    CollectingSnapshotSink strided(3);
    opts.snapshots = &strided;
    Simulator sim(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
    ASSERT_TRUE(sim.run().completed);
    EXPECT_EQ(strided.pointsSeen, all.pointsSeen);
    ASSERT_EQ(strided.snapshots.size(), (all.pointsSeen + 2) / 3);
    for (size_t i = 0; i < strided.snapshots.size(); ++i) {
        EXPECT_EQ(strided.snapshots[i]->totalCycles,
                  all.snapshots[3 * i]->totalCycles);
        EXPECT_EQ(strided.snapshots[i]->committedSeq,
                  all.snapshots[3 * i]->committedSeq);
    }

    // Captured metadata is monotone in time.
    for (size_t i = 1; i < all.snapshots.size(); ++i) {
        EXPECT_GE(all.snapshots[i]->totalCycles,
                  all.snapshots[i - 1]->totalCycles);
        EXPECT_GT(all.snapshots[i]->committedSeq,
                  all.snapshots[i - 1]->committedSeq);
    }
}

TEST(SnapshotSim, CollectingSinkStopsAfterWindowBound)
{
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);

    RunOptions opts;
    opts.validate = false;
    opts.faults.enabled = true; // records the backup windows
    CollectingSnapshotSink all(1);
    opts.snapshots = &all;
    std::vector<FaultInjector::BackupWindow> windows;
    {
        Simulator sim(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
        ASSERT_TRUE(sim.run().completed);
        windows = sim.faultInjector().backupWindows();
    }
    constexpr uint64_t kMax = 2;
    ASSERT_GT(windows.size(), kMax + 1);

    CollectingSnapshotSink bounded(1, kMax);
    opts.snapshots = &bounded;
    Simulator sim(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
    ASSERT_TRUE(sim.run().completed);

    // The bound keeps a non-empty prefix of the unbounded capture,
    // still counts every safe point, and stops at the first safe
    // point past the kMax-th window.
    EXPECT_EQ(bounded.pointsSeen, all.pointsSeen);
    ASSERT_GE(bounded.snapshots.size(), 1u);
    ASSERT_LT(bounded.snapshots.size(), all.snapshots.size());
    for (size_t i = 0; i < bounded.snapshots.size(); ++i) {
        EXPECT_EQ(bounded.snapshots[i]->totalCycles,
                  all.snapshots[i]->totalCycles);
        EXPECT_LE(bounded.snapshots[i]->persistCount,
                  windows[kMax - 1].lastPersist);
    }
    EXPECT_GE(all.snapshots[bounded.snapshots.size()]->persistCount,
              windows[kMax].lastPersist);
}

TEST(SnapshotSim, ForkResumesByteIdentical)
{
    Program prog = assembleWorkload("dwt");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 11, 8.0);

    RunOptions opts;
    opts.validate = false;
    CollectingSnapshotSink sink(1);
    opts.snapshots = &sink;

    Simulator scratch(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
    RunResult sr = scratch.run();
    ASSERT_TRUE(sr.completed);
    Final want = fingerprint(scratch, sr);
    ASSERT_GE(sink.snapshots.size(), 2u);

    // Resume from every captured safe point; each fork must land on
    // the exact same final machine.
    for (size_t i = 0; i < sink.snapshots.size(); ++i) {
        RunOptions fopts;
        fopts.validate = false;
        fopts.resumeFrom = sink.snapshots[i].get();
        Simulator fork(prog, ArchKind::Nvmr, cfg, jit, trace, fopts);
        RunResult fr = fork.run();
        Final got = fingerprint(fork, fr);
        expectIdentical(want, got,
                        ("fork " + std::to_string(i)).c_str());
    }
}

TEST(SnapshotSim, MalformedBlobPanicsOnceAtRestore)
{
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    RunOptions opts;
    opts.validate = false;
    CollectingSnapshotSink sink(1);
    opts.snapshots = &sink;
    Simulator scratch(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
    ASSERT_TRUE(scratch.run().completed);
    ASSERT_FALSE(sink.snapshots.empty());

    auto forkFrom = [&](const MachineSnapshot &snap) {
        RunOptions fopts;
        fopts.validate = false;
        fopts.resumeFrom = &snap;
        Simulator fork(prog, ArchKind::Nvmr, cfg, jit, trace, fopts);
        fork.run();
    };
    MachineSnapshot cut = *sink.snapshots.back();
    cut.blob.pop_back();
    EXPECT_DEATH(forkFrom(cut), "snapshot blob underrun: need");
    MachineSnapshot longer = *sink.snapshots.back();
    longer.blob.push_back('\0');
    EXPECT_DEATH(forkFrom(longer), "snapshot blob has trailing bytes");
}

TEST(SnapshotSim, SnapshotOutlivesCapturingSimulator)
{
    // Snapshots hold shared page references, not pointers into the
    // simulator: forking after the capturing run is destroyed (and
    // under ASan, after its memory is poisoned) must still work.
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    JitPolicy jit;
    HarvestTrace trace(TraceKind::Rf, 13, 8.0);

    SnapshotPtr snap;
    Final want;
    {
        RunOptions opts;
        opts.validate = false;
        CollectingSnapshotSink sink(1);
        opts.snapshots = &sink;
        Simulator scratch(prog, ArchKind::Nvmr, cfg, jit, trace, opts);
        RunResult sr = scratch.run();
        ASSERT_TRUE(sr.completed);
        want = fingerprint(scratch, sr);
        ASSERT_FALSE(sink.snapshots.empty());
        snap = sink.snapshots[sink.snapshots.size() / 2];
    }

    RunOptions fopts;
    fopts.validate = false;
    fopts.resumeFrom = snap.get();
    Simulator fork(prog, ArchKind::Nvmr, cfg, jit, trace, fopts);
    RunResult fr = fork.run();
    Final got = fingerprint(fork, fr);
    expectIdentical(want, got, "fork after capturer destroyed");
}
