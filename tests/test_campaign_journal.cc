/**
 * @file
 * Tests for the campaign journal (nvmr-campaign-journal-v1): framed
 * record round-trips through JournalWriter/loadJournal, torn-tail and
 * CRC-corruption recovery (trust everything before the first bad
 * record, reject everything after), resume-append after truncation,
 * header validation, and the cell-key / payload helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/journal.hh"

namespace nvmr::campaign
{
namespace
{

std::string
tempPath(const std::string &name)
{
    std::string path = testing::TempDir() + "/" + name;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

/** A journal with a header and two cell records. */
std::string
makeJournal(const std::string &path, uint64_t config_hash)
{
    JournalWriter w;
    EXPECT_TRUE(w.openFresh(path, config_hash, "nvmr_test"));
    EXPECT_TRUE(w.append(RecordType::Cell, cellKey("grid", 0),
                         std::string("alpha\0beta", 10)));
    EXPECT_TRUE(w.append(RecordType::Cell, cellKey("grid", 1),
                         "gamma"));
    w.close();
    return path;
}

TEST(CampaignJournal, RoundTrip)
{
    std::string path = tempPath("journal_roundtrip.jrn");
    makeJournal(path, 0x1234);

    JournalContents j = loadJournal(path);
    EXPECT_TRUE(j.error.empty()) << j.error;
    EXPECT_FALSE(j.truncatedTail);
    EXPECT_EQ(j.configHash, 0x1234u);
    EXPECT_EQ(j.tool, "nvmr_test");
    ASSERT_EQ(j.cells.size(), 2u);
    EXPECT_EQ(j.cells.at(cellKey("grid", 0)),
              std::string("alpha\0beta", 10));
    EXPECT_EQ(j.cells.at(cellKey("grid", 1)), "gamma");
    EXPECT_EQ(j.validBytes, readFile(path).size());
}

TEST(CampaignJournal, QuarantineRecordRoundTrip)
{
    std::string path = tempPath("journal_quarantine.jrn");
    JournalWriter w;
    ASSERT_TRUE(w.openFresh(path, 7, "nvmr_test"));
    ASSERT_TRUE(w.append(RecordType::Quarantine, cellKey("grid", 3),
                         quarantinePayload(3, "spin hung")));
    w.close();

    JournalContents j = loadJournal(path);
    ASSERT_TRUE(j.error.empty()) << j.error;
    ASSERT_EQ(j.quarantined.size(), 1u);
    unsigned attempts = 0;
    std::string reason;
    ASSERT_TRUE(parseQuarantinePayload(
        j.quarantined.at(cellKey("grid", 3)), attempts, reason));
    EXPECT_EQ(attempts, 3u);
    EXPECT_EQ(reason, "spin hung");
}

TEST(CampaignJournal, TornTailIsDroppedNotFatal)
{
    std::string path = tempPath("journal_torn.jrn");
    makeJournal(path, 9);
    std::string intact = readFile(path);

    // A frame header promising more payload than the file holds --
    // exactly what a crash mid-append leaves behind.
    std::ofstream os(path, std::ios::binary | std::ios::app);
    uint32_t len = 100000;
    uint8_t type = 1;
    uint64_t key = 42;
    os.write(reinterpret_cast<const char *>(&len), 4);
    os.write(reinterpret_cast<const char *>(&type), 1);
    os.write(reinterpret_cast<const char *>(&key), 8);
    os.write("partial", 7);
    os.close();

    JournalContents j = loadJournal(path);
    EXPECT_TRUE(j.error.empty()) << j.error;
    EXPECT_TRUE(j.truncatedTail);
    EXPECT_EQ(j.validBytes, intact.size());
    EXPECT_EQ(j.cells.size(), 2u);
}

TEST(CampaignJournal, CrcCorruptionRejectsRecordAndTail)
{
    std::string path = tempPath("journal_crc.jrn");
    makeJournal(path, 9);
    std::string bytes = readFile(path);

    // Flip one payload byte of the *last* record; the reader must
    // keep the first cell and reject from the corrupt record on.
    bytes[bytes.size() - 6] ^= 0x40;
    writeFile(path, bytes);

    JournalContents j = loadJournal(path);
    EXPECT_TRUE(j.error.empty()) << j.error;
    EXPECT_TRUE(j.truncatedTail);
    EXPECT_EQ(j.cells.size(), 1u);
    EXPECT_EQ(j.cells.count(cellKey("grid", 0)), 1u);
    EXPECT_EQ(j.cells.count(cellKey("grid", 1)), 0u);
    EXPECT_LT(j.validBytes, bytes.size());
}

TEST(CampaignJournal, ResumeAppendAfterTruncatedTail)
{
    std::string path = tempPath("journal_resume.jrn");
    makeJournal(path, 9);
    std::ofstream(path, std::ios::binary | std::ios::app)
        << "garbage tail";

    JournalContents j = loadJournal(path);
    ASSERT_TRUE(j.error.empty()) << j.error;
    ASSERT_TRUE(j.truncatedTail);

    // openResume truncates the garbage away; the next append lands
    // on a clean frame boundary.
    JournalWriter w;
    ASSERT_TRUE(w.openResume(path, j.validBytes));
    ASSERT_TRUE(w.append(RecordType::Cell, cellKey("grid", 2),
                         "delta"));
    w.close();

    JournalContents j2 = loadJournal(path);
    EXPECT_TRUE(j2.error.empty()) << j2.error;
    EXPECT_FALSE(j2.truncatedTail);
    EXPECT_EQ(j2.cells.size(), 3u);
    EXPECT_EQ(j2.cells.at(cellKey("grid", 2)), "delta");
}

TEST(CampaignJournal, MissingFileIsAnError)
{
    JournalContents j =
        loadJournal(tempPath("journal_missing.jrn"));
    EXPECT_FALSE(j.error.empty());
}

TEST(CampaignJournal, EmptyFileIsAnError)
{
    std::string path = tempPath("journal_empty.jrn");
    writeFile(path, "");
    EXPECT_FALSE(loadJournal(path).error.empty());
}

TEST(CampaignJournal, BadMagicIsAnError)
{
    std::string path = tempPath("journal_badmagic.jrn");
    writeFile(path, "notajrn1 some other file format entirely");
    EXPECT_FALSE(loadJournal(path).error.empty());
}

TEST(CampaignJournal, MissingHeaderRecordIsAnError)
{
    // Magic only, no intact Header record: unusable, not resumable.
    std::string path = tempPath("journal_noheader.jrn");
    writeFile(path, kJournalMagic);
    EXPECT_FALSE(loadJournal(path).error.empty());
}

TEST(CampaignJournal, HeaderPayloadRoundTrip)
{
    uint64_t hash = 0;
    std::string tool;
    ASSERT_TRUE(parseHeaderPayload(
        headerPayload(0xfeedfacecafebeefull, "nvmr_sweep"), hash,
        tool));
    EXPECT_EQ(hash, 0xfeedfacecafebeefull);
    EXPECT_EQ(tool, "nvmr_sweep");
}

TEST(CampaignJournal, CellKeysAreStableAndDistinct)
{
    EXPECT_EQ(cellKey("grid", 5), cellKey("grid", 5));
    EXPECT_NE(cellKey("grid", 5), cellKey("grid", 6));
    EXPECT_NE(cellKey("grid", 5), cellKey("test", 5));
    // "a"/index 1 vs "a1"/index-elsewhere style collisions are what
    // the stage:index separator prevents.
    EXPECT_NE(cellKey("s1", 0), cellKey("s", 10));
}

TEST(CampaignJournal, Crc32MatchesKnownVector)
{
    // IEEE 802.3 CRC of "123456789" is the classic check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(CampaignCellIo, DecodersRejectOversizedElementCounts)
{
    // A corrupt element count must not turn into a giant resize(),
    // and a refused payload leaves the output empty with nothing
    // allocated. The second payload is 1 MiB with a count as large
    // as the payload itself: refused against the element size, not
    // the payload size.
    std::string bogus(12, '\0');
    bogus[0] = static_cast<char>(0xff);
    bogus[1] = static_cast<char>(0xff);
    bogus[2] = static_cast<char>(0xff);
    bogus[3] = static_cast<char>(0x7f);
    const uint32_t n = (1u << 20) - 8;
    std::string mib(1u << 20, '\0');
    std::memcpy(mib.data(), &n, sizeof n);
    std::string census_mib(1u << 20, '\0');
    census_mib[0] = 1; // completed
    std::memcpy(census_mib.data() + 17, &n, sizeof n); // windows

    for (const std::string &bytes : {bogus, mib}) {
        std::vector<RunResult> runs(1);
        EXPECT_FALSE(decodeRunResults(bytes, runs));
        EXPECT_TRUE(runs.empty() && runs.capacity() == 0);
        std::vector<SpendthriftSample> samples(1);
        EXPECT_FALSE(decodeSamples(bytes, samples));
        EXPECT_TRUE(samples.empty() && samples.capacity() == 0);
    }
    for (const std::string &bytes : {bogus, census_mib}) {
        CensusResult census;
        census.windows.resize(1);
        census.commitCycles.resize(1);
        EXPECT_FALSE(decodeCensus(bytes, census));
        EXPECT_TRUE(census.windows.empty() &&
                    census.windows.capacity() == 0);
        EXPECT_TRUE(census.commitCycles.empty() &&
                    census.commitCycles.capacity() == 0);
    }
}

} // namespace
} // namespace nvmr::campaign
