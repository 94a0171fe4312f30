/**
 * @file
 * Tests for the one byte codec (common/bytes.hh) and the on-disk
 * formats built on it: the reader's failure rule, golden bytes of
 * every on-disk encoder (journal header and frames, RunResults,
 * census, samples, quarantine payload, service job record, NVTR
 * trace), and a malformed-input sweep over every strict prefix and
 * single-byte flip of each encoding that is read back (NVTR traces
 * are only written).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/journal.hh"
#include "common/bytes.hh"
#include "obs/trace.hh"
#include "serve/service.hh"

namespace nvmr
{
namespace
{

using namespace campaign;

std::string
hexOf(const std::string &bytes)
{
    static const char *digits = "0123456789abcdef";
    std::string out;
    for (unsigned char c : bytes) {
        out += digits[c >> 4];
        out += digits[c & 0xf];
    }
    return out;
}

// ---------------------------------------------------------------------
// The reader's failure rule
// ---------------------------------------------------------------------

TEST(ByteCodec, FixedWidthFieldsAreLittleEndian)
{
    ByteWriter w;
    w.u8(0xab);
    w.u32(0x01020304u);
    w.u64(0x0102030405060708ull);
    w.boolean(true);
    w.str("hi");
    EXPECT_EQ(hexOf(w.data()),
              "ab" "04030201" "0807060504030201" "01" "02000000" "6869");
}

TEST(ByteCodec, FirstFailureIsLatchedAndLaterReadsAreZero)
{
    ByteWriter w;
    w.u32(7);
    w.u64(0xffffffffffffffffull);
    std::string bytes = w.take();
    ByteReader r(bytes);
    EXPECT_EQ(r.count(r.u32(), 2), 0u); // 7 x 2 > 8 bytes left
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "need 7 x 2 bytes, have 8");
    // The u64 is still there, but a failed reader reads zeros.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.count(0, 1), 0u);
    EXPECT_EQ(r.consume(0), nullptr);
    EXPECT_EQ(r.error(), "need 7 x 2 bytes, have 8");
    EXPECT_EQ(r.remaining(), 8u);
}

TEST(ByteCodec, CountNeverMultipliesOut)
{
    // 2^61 x 8 wraps to 0 in 64 bits; the check must still refuse.
    std::string bytes(16, '\0');
    ByteReader r(bytes);
    EXPECT_EQ(r.count(uint64_t(1) << 61, 8), 0u);
    EXPECT_EQ(r.error(), "need 2305843009213693952 x 8 bytes, have 16");
}

TEST(ByteCodec, BoolBytesOtherThanZeroOrOneAreRefused)
{
    std::string bytes("\x01\x00\x02\x01", 4);
    ByteReader r(bytes);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.error(), "bool byte 2 is not 0 or 1");
    EXPECT_FALSE(r.boolean()); // latched: zeros from here on
}

// ---------------------------------------------------------------------
// Golden bytes: fixed values through every on-disk encoder. The hex
// was recorded from the encoders this codec replaced; a change here
// breaks every journal and trace already on disk.
// ---------------------------------------------------------------------

RunResult
goldenRun()
{
    RunResult r;
    r.program = "hist";
    r.arch = "nvmr";
    r.policy = "jit";
    r.trace = "solar-3";
    r.completed = true;
    r.validated = false;
    r.validationChecked = true;
    r.activeCycles = 0x0102030405060708ull;
    r.totalCycles = 2002;
    r.instructions = 3003;
    for (size_t i = 0; i < r.energy.size(); ++i)
        r.energy[i] = 0.5 + static_cast<double>(i);
    r.totalEnergyNj = -12.25;
    r.backups = 4;
    for (size_t i = 0; i < r.backupsByReason.size(); ++i)
        r.backupsByReason[i] = 10 + i;
    r.violations = 5;
    r.renames = 6;
    r.reclaims = 7;
    r.restores = 8;
    r.powerFailures = 9;
    r.nvmReads = 10;
    r.nvmWrites = 11;
    r.maxWear = 12;
    r.cacheHits = 13;
    r.cacheMisses = 14;
    r.tornBackups = 15;
    r.injectedCrashes = 16;
    r.eccCorrected = 17;
    r.eccUncorrectable = 18;
    return r;
}

CensusResult
goldenCensus()
{
    CensusResult c;
    c.completed = true;
    c.totalCycles = 123456789;
    c.persistPoints = 748;
    c.windows.push_back({1, 2, 3});
    c.windows.push_back({40, 50, 60});
    c.commitCycles = {100, 0xffffffffffffffffull};
    return c;
}

std::vector<SpendthriftSample>
goldenSamples()
{
    return {{1.5f, 2.25f, 1.0f}, {0.125f, 3.0f, 0.0f}};
}

std::string
goldenJobRecord()
{
    return serve::encodeJobRecord("j1.job", 0xfeedfacecafebeefull, 2, 3,
                                  -1, "timeout");
}

std::string
goldenTrace()
{
    TraceBuffer buf(2); // the first of three events is dropped
    buf.consume(TraceEvent{1, 1, EventKind::PowerOn, 0, 0});
    buf.consume(TraceEvent{20, 19, EventKind::BackupCommit, 3, 4});
    buf.consume(TraceEvent{300, 299, EventKind::NvmWrite, 0xdeadbeef,
                           0xffffffffffffffffull});
    std::ostringstream os;
    buf.writeBinary(os);
    return os.str();
}

/** A scratch file of the running test (ctest runs tests in parallel
 *  processes, so each needs its own). */
std::string
tempFile(const char *what)
{
    return testing::TempDir() + "/" +
           testing::UnitTest::GetInstance()->current_test_info()->name() +
           "." + what;
}

/** Magic, a header, a cell and a quarantine record. */
std::string
goldenJournal()
{
    std::string path = tempFile("golden.jrn");
    std::remove(path.c_str());
    {
        JournalWriter w;
        EXPECT_TRUE(w.openFresh(path, 0x0123456789abcdefull,
                                "nvmr_golden"));
        EXPECT_TRUE(
            w.append(RecordType::Cell, 0x1122334455667788ull, "cell"));
        EXPECT_TRUE(w.append(RecordType::Quarantine, 7,
                             quarantinePayload(3, "hang")));
    }
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(CodecGolden, JournalHeaderAndFrames)
{
    EXPECT_EQ(hexOf(goldenJournal()),
              "6e766d726a726e3113000000000000000000000000efcdab89674523"
              "016e766d725f676f6c64656e774a2411040000000188776655443322"
              "1163656c6c4e80774e0c000000020700000000000000030000000400"
              "000068616e6746727f28");
}

TEST(CodecGolden, RunResults)
{
    EXPECT_EQ(hexOf(encodeRunResults({goldenRun()})),
              "010000000400000068697374040000006e766d72030000006a697407"
              "000000736f6c61722d330100010807060504030201d2070000000000"
              "00bb0b00000000000008000000000000000000e03f000000000000f8"
              "3f00000000000004400000000000000c400000000000001240000000"
              "00000016400000000000001a400000000000001e4000000000008028"
              "c004000000000000000a0000000a000000000000000b000000000000"
              "000c000000000000000d000000000000000e000000000000000f0000"
              "00000000001000000000000000110000000000000012000000000000"
              "00130000000000000005000000000000000600000000000000070000"
              "0000000000080000000000000009000000000000000a000000000000"
              "000b000000000000000c000000000000000d000000000000000e0000"
              "00000000000f00000000000000100000000000000011000000000000"
              "001200000000000000");
}

TEST(CodecGolden, Census)
{
    EXPECT_EQ(hexOf(encodeCensus(goldenCensus())),
              "0115cd5b0700000000ec020000000000000200000001000000000000"
              "00020000000000000003000000000000002800000000000000320000"
              "00000000003c00000000000000020000006400000000000000ffffff"
              "ffffffffff");
}

TEST(CodecGolden, Samples)
{
    EXPECT_EQ(hexOf(encodeSamples(goldenSamples())),
              "020000000000c03f000010400000803f0000003e0000404000000000");
}

TEST(CodecGolden, QuarantinePayload)
{
    EXPECT_EQ(hexOf(quarantinePayload(3, "watchdog")),
              "03000000080000007761746368646f67");
}

TEST(CodecGolden, JobRecord)
{
    EXPECT_EQ(hexOf(goldenJobRecord()),
              "060000006a312e6a6f62efbefecacefaedfe0203000000ffffffff07"
              "00000074696d656f7574");
}

TEST(CodecGolden, NvtrTrace)
{
    EXPECT_EQ(hexOf(goldenTrace()),
              "4e565452010000000000000002000000000000000100000000000000"
              "14000000000000001300000000000000050000000000000003000000"
              "0000000004000000000000002c010000000000002b01000000000000"
              "1d00000000000000efbeadde00000000ffffffffffffffff");
}

// ---------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------

/**
 * One payload codec under the sweep: `reencode` decodes its argument
 * and, when the decoder accepts it, returns the encoding of what it
 * decoded; it returns nullopt when the decoder refuses, after checking
 * that a refusing decoder left its output empty.
 */
struct PayloadCodec
{
    const char *name;
    std::string valid;
    std::function<std::optional<std::string>(const std::string &)>
        reencode;
};

/** Call fn(bytes, i, mask) for `valid` with byte i XORed by mask, for
 *  every byte and each single-bit mask and 0xff. */
void
forEachFlip(const std::string &valid,
            const std::function<void(const std::string &, size_t,
                                     unsigned)> &fn)
{
    for (size_t i = 0; i < valid.size(); ++i) {
        for (unsigned mask : {0x01u, 0x02u, 0x04u, 0x08u, 0x10u, 0x20u,
                              0x40u, 0x80u, 0xffu}) {
            std::string bytes = valid;
            bytes[i] = static_cast<char>(bytes[i] ^ mask);
            fn(bytes, i, mask);
        }
    }
}

/** Output of a refused decode: empty, with nothing allocated. */
template <typename V>
bool
emptied(const V &v)
{
    return v.empty() && v.capacity() == 0;
}

std::vector<PayloadCodec>
payloadCodecs()
{
    std::vector<PayloadCodec> codecs;
    codecs.push_back(
        {"RunResults", encodeRunResults({goldenRun(), goldenRun()}),
         [](const std::string &b) -> std::optional<std::string> {
             std::vector<RunResult> runs(2);
             if (decodeRunResults(b, runs))
                 return encodeRunResults(runs);
             EXPECT_TRUE(emptied(runs));
             return std::nullopt;
         }});
    codecs.push_back(
        {"Census", encodeCensus(goldenCensus()),
         [](const std::string &b) -> std::optional<std::string> {
             CensusResult c = goldenCensus();
             if (decodeCensus(b, c))
                 return encodeCensus(c);
             EXPECT_TRUE(emptied(c.windows) && emptied(c.commitCycles));
             return std::nullopt;
         }});
    codecs.push_back(
        {"Samples", encodeSamples(goldenSamples()),
         [](const std::string &b) -> std::optional<std::string> {
             std::vector<SpendthriftSample> s(3);
             if (decodeSamples(b, s))
                 return encodeSamples(s);
             EXPECT_TRUE(emptied(s));
             return std::nullopt;
         }});
    codecs.push_back(
        {"Quarantine", quarantinePayload(3, "watchdog"),
         [](const std::string &b) -> std::optional<std::string> {
             unsigned attempts = 0;
             std::string reason;
             if (!parseQuarantinePayload(b, attempts, reason))
                 return std::nullopt;
             return quarantinePayload(attempts, reason);
         }});
    codecs.push_back(
        {"JobRecord", goldenJobRecord(),
         [](const std::string &b) -> std::optional<std::string> {
             std::string name, reason;
             uint64_t hash = 0;
             uint8_t status = 0;
             unsigned attempts = 0;
             int code = 0;
             if (!serve::decodeJobRecord(b, name, hash, status, attempts,
                                         code, reason))
                 return std::nullopt;
             return serve::encodeJobRecord(name, hash, status, attempts,
                                           code, reason);
         }});
    return codecs;
}

TEST(CodecMalformed, EveryStrictPrefixOfAPayloadIsRefused)
{
    for (const PayloadCodec &c : payloadCodecs()) {
        ASSERT_EQ(c.reencode(c.valid), c.valid) << c.name;
        for (size_t n = 0; n < c.valid.size(); ++n)
            EXPECT_EQ(c.reencode(c.valid.substr(0, n)), std::nullopt)
                << c.name << " prefix of " << n << " bytes";
    }
}

TEST(CodecMalformed, EveryByteFlipOfAPayloadIsRefusedOrExact)
{
    // A payload carries no checksum, so a flip inside a value field
    // decodes to another value. Every accepted flip must then be the
    // one encoding of what it decoded to: nothing is skipped,
    // defaulted or read loosely.
    for (const PayloadCodec &c : payloadCodecs()) {
        forEachFlip(c.valid, [&](const std::string &bytes, size_t i,
                                 unsigned mask) {
            std::optional<std::string> back = c.reencode(bytes);
            if (back) {
                EXPECT_EQ(*back, bytes)
                    << c.name << " byte " << i << " ^ " << mask;
            }
        });
    }
}

/** What a journal load recovered, comparably. */
struct Loaded
{
    bool usable;
    bool truncated;
    uint64_t validBytes;
    size_t records;
};

Loaded
loadBytes(const std::string &bytes)
{
    std::string path = tempFile("sweep.jrn");
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    JournalContents j = loadJournal(path);
    return {j.error.empty(), j.truncatedTail, j.validBytes,
            j.cells.size() + j.quarantined.size()};
}

TEST(CodecMalformed, JournalPrefixesStopAtTheLastWholeFrame)
{
    // An append-only journal cut at a frame boundary is a shorter
    // valid journal; cut anywhere else, the torn frame is dropped.
    const std::string valid = goldenJournal();
    const size_t magic = 8, header = 13 + 19 + 4, cell = 13 + 4 + 4;
    ASSERT_EQ(valid.size(), magic + header + cell + 13 + 12 + 4);
    for (size_t n = 0; n < valid.size(); ++n) {
        Loaded got = loadBytes(valid.substr(0, n));
        if (n < magic + header) {
            EXPECT_FALSE(got.usable) << n;
            continue;
        }
        size_t whole = n < magic + header + cell ? magic + header
                                                 : magic + header + cell;
        EXPECT_TRUE(got.usable) << n;
        EXPECT_EQ(got.truncated, n != whole) << n;
        EXPECT_EQ(got.validBytes, whole) << n;
        EXPECT_EQ(got.records, whole == magic + header ? 0u : 1u) << n;
    }
}

TEST(CodecMalformed, EveryJournalByteFlipIsCaught)
{
    // The magic and every frame are checked: a flip makes the journal
    // unusable (magic, header) or drops the damaged record and all
    // after it.
    const std::string valid = goldenJournal();
    Loaded whole = loadBytes(valid);
    ASSERT_TRUE(whole.usable && !whole.truncated);
    ASSERT_EQ(whole.records, 2u);
    forEachFlip(valid, [&](const std::string &bytes, size_t i,
                           unsigned mask) {
        Loaded got = loadBytes(bytes);
        EXPECT_TRUE(!got.usable || (got.truncated && got.records < 2))
            << "byte " << i << " ^ " << mask;
    });
}

} // namespace
} // namespace nvmr
