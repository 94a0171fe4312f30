#include "obs/trace.hh"

#include <ostream>

#include "arch/arch.hh"
#include "common/bytes.hh"
#include "common/log.hh"
#include "obs/json.hh"

namespace nvmr
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::PowerOn: return "power_on";
      case EventKind::PowerFail: return "power_failure";
      case EventKind::Hibernate: return "hibernate";
      case EventKind::Wake: return "wake";
      case EventKind::BackupBegin: return "backup_begin";
      case EventKind::BackupCommit: return "backup_commit";
      case EventKind::BackupRollback: return "backup_rollback";
      case EventKind::Restore: return "restore";
      case EventKind::CacheHit: return "cache_hit";
      case EventKind::CacheMiss: return "cache_miss";
      case EventKind::CacheEvict: return "cache_evict";
      case EventKind::Violation: return "violation";
      case EventKind::GbfInsert: return "gbf_insert";
      case EventKind::DominanceReset: return "dominance_reset";
      case EventKind::Rename: return "rename";
      case EventKind::Reclaim: return "reclaim";
      case EventKind::MtcHit: return "mtcache_hit";
      case EventKind::MtcMiss: return "mtcache_miss";
      case EventKind::MtcEvict: return "mtcache_evict";
      case EventKind::OopAppend: return "oop_append";
      case EventKind::OopGc: return "oop_gc";
      case EventKind::TaskBoundary: return "task_boundary";
      case EventKind::CpuHalt: return "cpu_halt";
      case EventKind::CpuReset: return "cpu_reset";
      case EventKind::FaultCrash: return "fault_crash";
      case EventKind::EccCorrected: return "ecc_corrected";
      case EventKind::EccUncorrectable: return "ecc_uncorrectable";
      case EventKind::StuckBit: return "stuck_bit";
      case EventKind::MemAccess: return "mem_access";
      case EventKind::NvmWrite: return "nvm_write";
      case EventKind::GbfQuery: return "gbf_query";
      default: return "<bad>";
    }
}

namespace
{

/** Per-layer track an event kind renders on in the Chrome export. */
struct Track
{
    int tid;
    const char *name;
};

Track
trackOf(EventKind kind)
{
    switch (kind) {
      case EventKind::PowerOn:
      case EventKind::PowerFail:
      case EventKind::Hibernate:
      case EventKind::Wake:
        return {0, "power"};
      case EventKind::BackupBegin:
      case EventKind::BackupCommit:
      case EventKind::BackupRollback:
      case EventKind::Restore:
        return {1, "backup"};
      case EventKind::CacheHit:
      case EventKind::CacheMiss:
      case EventKind::CacheEvict:
      case EventKind::Violation:
      case EventKind::GbfInsert:
      case EventKind::DominanceReset:
      case EventKind::GbfQuery:
        return {2, "cache"};
      case EventKind::Rename:
      case EventKind::Reclaim:
      case EventKind::MtcHit:
      case EventKind::MtcMiss:
      case EventKind::MtcEvict:
        return {3, "rename"};
      case EventKind::OopAppend:
      case EventKind::OopGc:
      case EventKind::TaskBoundary:
        return {4, "arch"};
      case EventKind::CpuHalt:
      case EventKind::CpuReset:
        return {5, "cpu"};
      case EventKind::MemAccess:
        return {5, "cpu"};
      case EventKind::NvmWrite:
        return {7, "nvm"};
      default:
        return {6, "fault"};
    }
}

constexpr char kBinaryMagic[4] = {'N', 'V', 'T', 'R'};
constexpr uint64_t kBinaryVersion = 1;

} // namespace

// ----------------------------------------------------------------------
// TraceBuffer
// ----------------------------------------------------------------------

TraceBuffer::TraceBuffer(size_t capacity) : cap(capacity)
{
    panic_if(cap == 0, "TraceBuffer capacity must be positive");
    ring.reserve(cap < 4096 ? cap : 4096);
}

void
TraceBuffer::consume(const TraceEvent &ev)
{
    ++recorded;
    if (ring.size() < cap) {
        ring.push_back(ev);
        return;
    }
    // Full: overwrite the oldest retained event.
    ring[head] = ev;
    head = (head + 1) % cap;
    wrapped = true;
}

std::vector<TraceEvent>
TraceBuffer::events() const
{
    if (!wrapped)
        return ring;
    std::vector<TraceEvent> out;
    out.reserve(ring.size());
    for (size_t i = 0; i < ring.size(); ++i)
        out.push_back(ring[(head + i) % cap]);
    return out;
}

void
TraceBuffer::clear()
{
    ring.clear();
    head = 0;
    wrapped = false;
    recorded = 0;
}

std::string
TraceBuffer::toChromeJson() const
{
    JsonWriter w;
    w.beginObject();
    w.kv("displayTimeUnit", "ms");
    w.key("otherData");
    w.beginObject();
    w.kv("generator", "nvmr");
    w.kv("clock", "cycles-as-microseconds");
    w.kv("dropped_events", dropped());
    w.endObject();
    w.key("traceEvents");
    w.beginArray();

    // Name the per-layer tracks once.
    bool named[8] = {};
    for (const TraceEvent &ev : events()) {
        Track t = trackOf(ev.kind);
        if (named[t.tid])
            continue;
        named[t.tid] = true;
        w.beginObject();
        w.kv("name", "thread_name");
        w.kv("ph", "M");
        w.kv("pid", 0);
        w.kv("tid", t.tid);
        w.key("args");
        w.beginObject();
        w.kv("name", t.name);
        w.endObject();
        w.endObject();
    }

    for (const TraceEvent &ev : events()) {
        Track t = trackOf(ev.kind);
        w.beginObject();
        w.kv("name", eventKindName(ev.kind));
        w.kv("cat", t.name);
        w.kv("ph", "i");
        w.kv("s", "t");
        w.kv("ts", ev.cycle); // 1 cycle rendered as 1 us
        w.kv("pid", 0);
        w.kv("tid", t.tid);
        w.key("args");
        w.beginObject();
        w.kv("active_cycles", ev.active);
        w.kv("a0", ev.a0);
        w.kv("a1", ev.a1);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
TraceBuffer::writeBinary(std::ostream &os) const
{
    ByteWriter w;
    w.bytes(kBinaryMagic, 4);
    w.u64(kBinaryVersion);
    w.u64(ring.size());
    w.u64(dropped());
    // Oldest first, as events() orders them, without copying the ring.
    for (size_t i = 0; i < ring.size(); ++i) {
        const TraceEvent &ev = ring[(head + i) % cap];
        w.u64(ev.cycle);
        w.u64(ev.active);
        w.u64(static_cast<uint64_t>(ev.kind));
        w.u64(ev.a0);
        w.u64(ev.a1);
    }
    os.write(w.data().data(), static_cast<std::streamsize>(w.size()));
}

// ----------------------------------------------------------------------
// TextSink
// ----------------------------------------------------------------------

namespace
{

/** The narrative kinds the historical --events view printed. */
bool
isNarrative(EventKind kind)
{
    switch (kind) {
      case EventKind::BackupCommit:
      case EventKind::PowerFail:
      case EventKind::Restore:
      case EventKind::Hibernate:
      case EventKind::Wake:
        return true;
      default:
        return false;
    }
}

} // namespace

std::string
TextSink::formatEvent(const TraceEvent &ev, bool verbose)
{
    char buf[160];
    unsigned long long at =
        static_cast<unsigned long long>(ev.active);
    // The five narrative lines keep the historical --events format.
    switch (ev.kind) {
      case EventKind::BackupCommit:
        std::snprintf(buf, sizeof(buf), "[%12llu] backup (%s)", at,
                      ev.a0 < kNumBackupReasons
                          ? backupReasonName(
                                static_cast<BackupReason>(ev.a0))
                          : "?");
        return buf;
      case EventKind::PowerFail:
        std::snprintf(buf, sizeof(buf), "[%12llu] power failure", at);
        return buf;
      case EventKind::Restore:
        std::snprintf(buf, sizeof(buf), "[%12llu] restore", at);
        return buf;
      case EventKind::Hibernate:
        std::snprintf(buf, sizeof(buf), "[%12llu] hibernate", at);
        return buf;
      case EventKind::Wake:
        std::snprintf(buf, sizeof(buf), "[%12llu] wake", at);
        return buf;
      default:
        break;
    }
    if (!verbose)
        return "";
    std::snprintf(buf, sizeof(buf),
                  "[%12llu] %s a0=%llu a1=%llu", at,
                  eventKindName(ev.kind),
                  static_cast<unsigned long long>(ev.a0),
                  static_cast<unsigned long long>(ev.a1));
    return buf;
}

void
TextSink::consume(const TraceEvent &ev)
{
    if (!verbose && !isNarrative(ev.kind))
        return;
    std::string line = formatEvent(ev, verbose);
    if (line.empty())
        return;
    std::fputs(line.c_str(), out);
    std::fputc('\n', out);
}

} // namespace nvmr
