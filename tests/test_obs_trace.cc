/**
 * @file
 * Unit and integration tests for the trace layer: ring-buffer wrap,
 * event ordering across a simulated power cycle, Chrome/Perfetto
 * JSON validity (parsed back with the strict validator), the binary
 * round trip, the --events text format, and the bit-identity
 * guarantee that attaching a sink changes no simulation results.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "isa/assembler.hh"
#include "obs/json.hh"
#include "obs/trace.hh"
#include "run_identity.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

TEST(TraceBuffer, RecordsAndStampsBoundClocks)
{
    uint64_t wall = 100, active = 40;
    TraceBuffer buf(16);
    buf.bindClocks(&wall, &active);
    buf.record(EventKind::BackupBegin, 3);
    wall = 200;
    active = 90;
    buf.record(EventKind::BackupCommit, 3, 1);
    auto evs = buf.events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].cycle, 100u);
    EXPECT_EQ(evs[0].active, 40u);
    EXPECT_EQ(evs[0].kind, EventKind::BackupBegin);
    EXPECT_EQ(evs[0].a0, 3u);
    EXPECT_EQ(evs[1].cycle, 200u);
    EXPECT_EQ(evs[1].a1, 1u);
}

TEST(TraceBuffer, UnboundClocksStampZero)
{
    TraceBuffer buf(4);
    buf.record(EventKind::PowerOn);
    EXPECT_EQ(buf.events()[0].cycle, 0u);
    EXPECT_EQ(buf.events()[0].active, 0u);
}

TEST(TraceBuffer, RingWrapKeepsNewestInOrder)
{
    TraceBuffer buf(8);
    for (uint64_t i = 0; i < 20; ++i)
        buf.recordAt(i, i, EventKind::CacheHit, i);
    EXPECT_EQ(buf.size(), 8u);
    EXPECT_EQ(buf.capacity(), 8u);
    EXPECT_EQ(buf.totalRecorded(), 20u);
    EXPECT_EQ(buf.dropped(), 12u);
    auto evs = buf.events();
    ASSERT_EQ(evs.size(), 8u);
    for (size_t i = 0; i < evs.size(); ++i)
        EXPECT_EQ(evs[i].a0, 12 + i) << "slot " << i;
}

TEST(TraceBuffer, WrapExactlyAtCapacityBoundary)
{
    TraceBuffer buf(4);
    for (uint64_t i = 0; i < 4; ++i)
        buf.recordAt(i, i, EventKind::CacheMiss, i);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_EQ(buf.events().front().a0, 0u);
    buf.recordAt(4, 4, EventKind::CacheMiss, 4);
    EXPECT_EQ(buf.dropped(), 1u);
    EXPECT_EQ(buf.events().front().a0, 1u);
    EXPECT_EQ(buf.events().back().a0, 4u);
}

TEST(TraceBuffer, ClearResetsEverything)
{
    TraceBuffer buf(2);
    buf.recordAt(1, 1, EventKind::Rename);
    buf.recordAt(2, 2, EventKind::Rename);
    buf.recordAt(3, 3, EventKind::Rename);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.totalRecorded(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    buf.recordAt(9, 9, EventKind::Reclaim, 7);
    ASSERT_EQ(buf.events().size(), 1u);
    EXPECT_EQ(buf.events()[0].a0, 7u);
}

TEST(TraceEventNames, AreStableAndExhaustive)
{
    EXPECT_STREQ(eventKindName(EventKind::PowerFail),
                 "power_failure");
    EXPECT_STREQ(eventKindName(EventKind::BackupCommit),
                 "backup_commit");
    EXPECT_STREQ(eventKindName(EventKind::Rename), "rename");
    EXPECT_STREQ(eventKindName(EventKind::EccCorrected),
                 "ecc_corrected");
    for (unsigned k = 0; k < kNumEventKinds; ++k) {
        const char *name =
            eventKindName(static_cast<EventKind>(k));
        ASSERT_NE(name, nullptr);
        EXPECT_GT(std::string(name).size(), 0u) << "kind " << k;
    }
}

TEST(ChromeExport, ProducesValidJsonWithTracks)
{
    TraceBuffer buf(64);
    buf.recordAt(0, 0, EventKind::PowerOn);
    buf.recordAt(10, 10, EventKind::BackupBegin, 1);
    buf.recordAt(20, 20, EventKind::BackupCommit, 1, 1);
    buf.recordAt(30, 25, EventKind::CacheMiss, 0x100);
    buf.recordAt(40, 30, EventKind::PowerFail);
    std::string json = buf.toChromeJson();
    std::string err;
    EXPECT_TRUE(jsonValidate(json, &err)) << err;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("backup_commit"), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(ChromeExport, EmptyBufferStillValid)
{
    TraceBuffer buf(4);
    std::string err;
    EXPECT_TRUE(jsonValidate(buf.toChromeJson(), &err)) << err;
}

TEST(BinaryExport, RoundTripsExactly)
{
    TraceBuffer buf(16);
    buf.recordAt(1, 1, EventKind::PowerOn);
    buf.recordAt(123456789012ull, 42, EventKind::Rename, 0x2000,
                 0x180400);
    buf.recordAt(~0ull, ~0ull, EventKind::FaultCrash, 17, 99);
    std::stringstream ss;
    buf.writeBinary(ss);
    auto back = TraceBuffer::readBinary(ss);
    auto orig = buf.events();
    ASSERT_EQ(back.size(), orig.size());
    for (size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].cycle, orig[i].cycle);
        EXPECT_EQ(back[i].active, orig[i].active);
        EXPECT_EQ(back[i].kind, orig[i].kind);
        EXPECT_EQ(back[i].a0, orig[i].a0);
        EXPECT_EQ(back[i].a1, orig[i].a1);
    }
}

TEST(BinaryExport, WrappedRingRoundTripsAndPreservesDroppedCount)
{
    // Overflow an 8-slot ring by 2.5x, then round-trip through the
    // binary format: the surviving (newest) events and the dropped
    // count recorded in the header must both come back exactly.
    TraceBuffer buf(8);
    for (uint64_t i = 0; i < 20; ++i)
        buf.recordAt(i, i, EventKind::CacheHit, i, i * 2);
    ASSERT_EQ(buf.dropped(), 12u);
    ASSERT_EQ(buf.totalRecorded(), 20u);

    std::stringstream ss;
    buf.writeBinary(ss);
    uint64_t dropped = 0;
    auto back = TraceBuffer::readBinary(ss, &dropped);
    EXPECT_EQ(dropped, 12u);
    ASSERT_EQ(back.size(), 8u);
    for (size_t i = 0; i < back.size(); ++i) {
        EXPECT_EQ(back[i].a0, 12 + i) << "slot " << i;
        EXPECT_EQ(back[i].a1, (12 + i) * 2) << "slot " << i;
        EXPECT_EQ(back[i].kind, EventKind::CacheHit);
    }
}

TEST(BinaryExport, UnwrappedRingReportsZeroDropped)
{
    TraceBuffer buf(16);
    buf.recordAt(1, 1, EventKind::PowerOn);
    std::stringstream ss;
    buf.writeBinary(ss);
    uint64_t dropped = 77; // must be overwritten, not left stale
    auto back = TraceBuffer::readBinary(ss, &dropped);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(back.size(), 1u);
}

TEST(BinaryExport, HugeRecordCountIsAUsageError)
{
    // A 28-byte file whose header claims 2^40 records: the count is
    // checked against the bytes that follow (none) before anything is
    // allocated, and the reader exits with the usage code.
    std::string file("NVTR", 4);
    for (uint64_t v : {uint64_t(1), uint64_t(1) << 40, uint64_t(0)})
        file.append(reinterpret_cast<const char *>(&v), sizeof v);
    ASSERT_EQ(file.size(), 28u);
    EXPECT_EXIT(
        {
            std::istringstream is(file);
            TraceBuffer::readBinary(is);
        },
        ::testing::ExitedWithCode(2),
        "truncated trace records: need 1099511627776 x 40 bytes, "
        "have 0");
}

TEST(TextSink, FormatsNarrativeEventsLikeTheLegacyPrinter)
{
    TraceEvent backup{500, 152, EventKind::BackupCommit,
                      /*reason Initial*/ 0, 1};
    EXPECT_EQ(TextSink::formatEvent(backup, false),
              "[         152] backup (initial)");
    TraceEvent fail{900, 7003, EventKind::PowerFail, 0, 0};
    EXPECT_EQ(TextSink::formatEvent(fail, false),
              "[        7003] power failure");
    TraceEvent restore{950, 7022, EventKind::Restore, 0, 2};
    EXPECT_EQ(TextSink::formatEvent(restore, false),
              "[        7022] restore");
    // Non-narrative kinds render empty unless verbose.
    TraceEvent hit{10, 10, EventKind::CacheHit, 0x100, 0};
    EXPECT_EQ(TextSink::formatEvent(hit, false), "");
    EXPECT_NE(TextSink::formatEvent(hit, true).find("cache_hit"),
              std::string::npos);
}

// ----------------------------------------------------------------------
// Integration: tracing a real intermittent run
// ----------------------------------------------------------------------

const char *kRmwProgram = R"(
        .data
arr:    .rand 256 31 0 1000
        .text
main:
        li   r1, 0
pass:
        li   r2, 0
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        ld   r5, 0(r3)
        addi r5, r5, 1
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 256
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 4
        blt  r1, r6, pass
        halt
)";

struct TracedSim : public ::testing::Test
{
    Program prog = assemble("rmw", kRmwProgram);
    SystemConfig cfg;

    TracedSim() { cfg.capacitorFarads = 7.5e-3; }

    RunResult
    run(TraceSink *sink)
    {
        WatchdogPolicy policy(4000);
        HarvestTrace trace(TraceKind::Rf, 21, 8.0);
        Simulator sim(prog, ArchKind::Nvmr, cfg, policy, trace);
        if (sink)
            sim.attachTrace(sink);
        return sim.run();
    }
};

TEST_F(TracedSim, EventOrderingAcrossPowerCycles)
{
    TraceBuffer buf;
    RunResult r = run(&buf);
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.validated);
    ASSERT_GT(r.powerFailures, 0u) << "test needs real outages";

    auto evs = buf.events();
    ASSERT_GT(evs.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);

    // Wall-cycle stamps never go backwards.
    for (size_t i = 1; i < evs.size(); ++i)
        ASSERT_GE(evs[i].cycle, evs[i - 1].cycle) << "event " << i;

    // The stream starts with power-on and every power failure is
    // eventually followed by a restore (the program completed).
    EXPECT_EQ(evs.front().kind, EventKind::PowerOn);
    uint64_t fails = 0, restores = 0, commits = 0;
    int pending = 0;
    for (const TraceEvent &ev : evs) {
        if (ev.kind == EventKind::PowerFail) {
            ++fails;
            ++pending;
        } else if (ev.kind == EventKind::Restore) {
            ++restores;
            ASSERT_GT(pending, 0)
                << "restore without a preceding power failure";
            --pending;
        } else if (ev.kind == EventKind::BackupCommit) {
            ++commits;
        }
    }
    EXPECT_EQ(fails, r.powerFailures);
    EXPECT_EQ(restores, r.restores);
    EXPECT_EQ(commits, r.backups);

    // Committed backup sequence numbers strictly increase.
    uint64_t last_seq = 0;
    for (const TraceEvent &ev : evs)
        if (ev.kind == EventKind::BackupCommit) {
            EXPECT_GT(ev.a1, last_seq);
            last_seq = ev.a1;
        }
}

TEST_F(TracedSim, DisabledSinkIsBitIdentical)
{
    TraceBuffer buf;
    RunResult traced = run(&buf);
    RunResult bare = run(nullptr);
    ASSERT_GT(buf.totalRecorded(), 0u);

    EXPECT_TRUE(sameRun(bare, traced));
}

} // namespace
} // namespace nvmr
