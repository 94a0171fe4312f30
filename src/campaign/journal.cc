#include "campaign/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "common/bytes.hh"
#include "common/log.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace nvmr::campaign
{

namespace
{

/** A frame is u32 payload_len | u8 type | u64 key | payload | u32
 *  crc32 of type + key + payload. */
constexpr size_t kMagicBytes = 8;

/** Cap a single record at 256 MiB: larger lengths in a frame header
 *  are certainly corruption, not data. */
constexpr uint32_t kMaxPayloadBytes = 256u << 20;

/** The reflected CRC-32 (IEEE 802.3) lookup table. */
constexpr std::array<uint32_t, 256> kCrcTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}();

} // namespace

uint32_t
crc32(const void *data, size_t n, uint32_t seed)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i)
        c = kCrcTable[(c ^ p[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

uint64_t
fnv1a(const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

uint64_t
cellKey(const std::string &stage, uint64_t index)
{
    std::string id = stage;
    id += ':';
    id += std::to_string(index);
    return fnv1a(id);
}

std::string
headerPayload(uint64_t config_hash, const std::string &tool)
{
    ByteWriter w;
    w.u64(config_hash);
    w.bytes(tool.data(), tool.size());
    return w.take();
}

bool
parseHeaderPayload(const std::string &payload, uint64_t &config_hash,
                   std::string &tool)
{
    ByteReader r(payload);
    config_hash = r.u64();
    tool.resize(r.remaining());
    r.bytes(tool.data(), tool.size());
    return r.ok();
}

// ----------------------------------------------------------------------
// Loading
// ----------------------------------------------------------------------

JournalContents
loadJournal(const std::string &path)
{
    JournalContents out;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        out.error = "cannot open " + path + ": " +
                    std::strerror(errno);
        return out;
    }
    std::string bytes;
    char buf[1 << 16];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        bytes.append(buf, got);
    bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        out.error = "read error on " + path;
        return out;
    }

    if (bytes.size() < kMagicBytes ||
        std::memcmp(bytes.data(), kJournalMagic, kMagicBytes) != 0) {
        out.error = path + " is not a " +
                    std::string(kJournalSchema) + " journal";
        return out;
    }

    ByteReader r(bytes.data() + kMagicBytes,
                 bytes.size() - kMagicBytes);
    bool sawHeader = false;
    while (!r.atEnd()) {
        uint32_t len = r.u32();
        uint8_t type = r.u8();
        uint64_t key = r.u64();
        const uint8_t *payload =
            len <= kMaxPayloadBytes ? r.consume(len) : nullptr;
        uint32_t stored = r.u32();
        // An incomplete frame (torn final write) ends the journal, and
        // so does a corrupt one: the record and everything after it
        // are rejected. The CRC covers type + key + payload.
        if (!r.ok() || !payload ||
            stored != crc32(payload - 1 - 8, 1 + 8 + len)) {
            out.truncatedTail = true;
            break;
        }
        std::string body(reinterpret_cast<const char *>(payload), len);
        if (!sawHeader) {
            if (type != static_cast<uint8_t>(RecordType::Header) ||
                !parseHeaderPayload(body, out.configHash, out.tool)) {
                out.error = path + ": first record is not an intact "
                                   "campaign header";
                return out;
            }
            sawHeader = true;
        } else if (type == static_cast<uint8_t>(RecordType::Cell)) {
            out.cells[key] = std::move(body);
        } else if (type ==
                   static_cast<uint8_t>(RecordType::Quarantine)) {
            out.quarantined[key] = std::move(body);
        }
        // Unknown record types are skipped (forward compatibility).
        out.validBytes = bytes.size() - r.remaining();
    }
    if (!sawHeader) {
        out.error = path + ": no intact campaign header record";
        return out;
    }
    out.validBytes = out.validBytes ? out.validBytes
                                    : kMagicBytes;
    return out;
}

// ----------------------------------------------------------------------
// Writing
// ----------------------------------------------------------------------

JournalWriter::~JournalWriter()
{
    close();
}

void
JournalWriter::close()
{
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

namespace
{

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

void
JournalWriter::degrade(const std::string &why)
{
    errorText = why;
    probeAttempt = 0;
    lastProbeNs = steadyNowNs();
    if (!degradedFlag) {
        degradedFlag = true;
        // Warn once per outage; the campaign keeps computing without
        // checkpoints, re-probes the file with exponential backoff,
        // and the tool exits nonzero at the end (docs/operations.md).
        if (!everDegradedFlag)
            warn("campaign journal degraded: ", why,
                 " -- continuing without checkpointing (will "
                 "re-probe with backoff)");
        everDegradedFlag = true;
    }
    close();
}

bool
JournalWriter::tryRecoverLocked()
{
    // Paced by the backoff schedule: most degraded appends return
    // immediately without touching the filesystem.
    uint64_t now = steadyNowNs();
    if (now - lastProbeNs < reprobe.delayNs(probeAttempt))
        return false;
    lastProbeNs = now;
    ++probeAttempt;

    // Preferred recovery: the on-disk file is still a loadable
    // journal of this campaign — reopen it at its intact prefix so
    // nothing already checkpointed is lost.
    JournalContents contents = loadJournal(pathName);
    if (contents.error.empty() &&
        (!haveHeader || (contents.configHash == headerHash &&
                         contents.tool == headerTool))) {
        fd = ::open(pathName.c_str(), O_WRONLY, 0644);
        if (fd < 0)
            return false;
        if (::ftruncate(fd, static_cast<off_t>(
                                contents.validBytes)) != 0 ||
            ::lseek(fd, 0, SEEK_END) < 0) {
            close();
            return false;
        }
        degradedFlag = false;
        inform("campaign journal recovered: ", pathName,
               " reopened after ", probeAttempt, " probe(s)");
        return true;
    }

    // The file is unusable (or belongs to someone else) but we know
    // our own header: rebuild from scratch. Records lost to the
    // outage are re-run on resume.
    if (!haveHeader)
        return false;
    int nfd = ::open(pathName.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (nfd < 0)
        return false;
    fd = nfd;
    degradedFlag = false; // appendLocked below must not short-circuit
    if (!writeAll(kJournalMagic, kMagicBytes) ||
        !appendLocked(RecordType::Header, 0,
                      headerPayload(headerHash, headerTool))) {
        // appendLocked/degrade reset the degraded state on failure.
        degradedFlag = true;
        close();
        return false;
    }
    inform("campaign journal recovered: ", pathName,
           " rebuilt after ", probeAttempt, " probe(s)");
    return true;
}

bool
JournalWriter::writeAll(const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (w == 0)
            return false;
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

bool
JournalWriter::openFresh(const std::string &path,
                         uint64_t config_hash,
                         const std::string &tool)
{
    std::lock_guard<std::mutex> g(mutex);
    pathName = path;
    haveHeader = true;
    headerHash = config_hash;
    headerTool = tool;
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        degrade("cannot create " + path + ": " +
                std::strerror(errno));
        return false;
    }
    if (!writeAll(kJournalMagic, kMagicBytes)) {
        degrade("short write on " + path + ": " +
                std::strerror(errno));
        return false;
    }
    return appendLocked(RecordType::Header, 0,
                        headerPayload(config_hash, tool));
}

bool
JournalWriter::openResume(const std::string &path,
                          uint64_t valid_bytes,
                          uint64_t config_hash,
                          const std::string &tool)
{
    std::lock_guard<std::mutex> g(mutex);
    pathName = path;
    if (config_hash != 0 || !tool.empty()) {
        haveHeader = true;
        headerHash = config_hash;
        headerTool = tool;
    }
    fd = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd < 0) {
        degrade("cannot open " + path + ": " + std::strerror(errno));
        return false;
    }
    // Roll back any torn tail so new records start on a frame
    // boundary.
    if (::ftruncate(fd, static_cast<off_t>(valid_bytes)) != 0 ||
        ::lseek(fd, 0, SEEK_END) < 0) {
        degrade("cannot truncate " + path + ": " +
                std::strerror(errno));
        return false;
    }
    return true;
}

bool
JournalWriter::append(RecordType type, uint64_t key,
                      const std::string &payload)
{
    // The span covers lock wait + write + fsync: the latency a
    // worker actually pays per checkpoint.
    obs::ProfSpan span(obs::Phase::JournalWrite);
    std::lock_guard<std::mutex> g(mutex);
    return appendLocked(type, key, payload);
}

bool
JournalWriter::appendLocked(RecordType type, uint64_t key,
                            const std::string &payload)
{
    // While degraded, each append first gets a (backoff-paced) chance
    // to bring the journal back; the record being appended is only
    // written if recovery succeeds, otherwise it is simply lost to
    // the outage like its predecessors.
    if (degradedFlag && !tryRecoverLocked())
        return false;
    if (fd < 0 || degradedFlag)
        return false;

    ByteWriter w;
    w.u32(static_cast<uint32_t>(payload.size()));
    w.u8(static_cast<uint8_t>(type));
    w.u64(key);
    w.bytes(payload.data(), payload.size());
    w.u32(crc32(w.data().data() + 4, w.size() - 4));
    const std::string &frame = w.data();

    off_t before = ::lseek(fd, 0, SEEK_CUR);
    if (!writeAll(frame.data(), frame.size())) {
        // Disk full / short write: try to roll back to the previous
        // intact record so the on-disk prefix stays valid, then
        // degrade (the loader would cope with the torn tail anyway).
        std::string why = std::string("short write: ") +
                          std::strerror(errno);
        if (before >= 0)
            (void)::ftruncate(fd, before);
        degrade(why);
        return false;
    }
    if (::fsync(fd) != 0) {
        degrade(std::string("fsync failed: ") +
                std::strerror(errno));
        return false;
    }
    if (obs::MetricsRegistry *m = obs::metrics()) {
        m->inc(obs::Counter::JournalAppends);
        m->add(obs::Counter::JournalBytes, frame.size());
    }
    return true;
}

} // namespace nvmr::campaign
