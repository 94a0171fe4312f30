#include "check/invariants.hh"

#include <algorithm>
#include <sstream>
#include <string>

#include "arch/arch.hh"
#include "core/freelist.hh"
#include "core/maptable.hh"
#include "core/mtcache.hh"
#include "core/nvmr_arch.hh"

namespace nvmr
{

namespace
{

constexpr size_t kMaxRetained = 64;

std::string
hex(Addr a)
{
    std::ostringstream os;
    os << "0x" << std::hex << a;
    return os.str();
}

} // namespace

std::vector<std::string>
deepCheckNvmr(const MapTable &mt, const FreeList &fl,
              const MapTableCache &mtc, Addr reserved_base,
              uint32_t block_bytes, uint32_t reserved_count,
              bool require_mtc_clean,
              const std::unordered_set<Addr> *in_flight)
{
    std::vector<std::string> out;

    // Map-table injectivity: two tags may never share a mapping (the
    // recovery data of one would overwrite the other's).
    std::unordered_map<Addr, Addr> by_mapping;
    std::unordered_set<Addr> tags;
    mt.forEach([&](Addr tag, Addr mapping) {
        tags.insert(tag);
        auto [it, fresh] = by_mapping.emplace(mapping, tag);
        if (!fresh)
            out.push_back("map table aliases " + hex(mapping) +
                          " for tags " + hex(it->second) + " and " +
                          hex(tag));
    });

    // Free-list double-free / free-while-mapped.
    std::unordered_set<Addr> free;
    for (Addr slot : fl.liveSlots()) {
        if (!free.insert(slot).second)
            out.push_back("free list holds " + hex(slot) + " twice");
        if (by_mapping.count(slot))
            out.push_back("free slot " + hex(slot) +
                          " is also a live mapping (of tag " +
                          hex(by_mapping[slot]) + ")");
    }

    // Conservation: every reserved block is free, mapped, or popped
    // for a rename that has not committed yet.
    for (uint32_t i = 0; i < reserved_count; ++i) {
        Addr block = reserved_base +
                     static_cast<Addr>(i) * block_bytes;
        if (free.count(block) || by_mapping.count(block))
            continue;
        if (in_flight && in_flight->count(block))
            continue;
        out.push_back("reserved block " + hex(block) +
                      " leaked: neither free nor mapped");
    }

    // Application-address closure: an app home on the free list (or
    // serving as another tag's mapping) holds no recovery data, so
    // its own data must live under a map-table entry elsewhere.
    auto needs_entry = [&](Addr block, const char *role) {
        if (block >= reserved_base)
            return;
        auto m = mt.peek(block);
        if (!m || *m == block)
            out.push_back("app block " + hex(block) + " is " + role +
                          " but its own data has no rename entry");
    };
    for (Addr slot : free)
        needs_entry(slot, "free");
    for (const auto &[mapping, tag] : by_mapping)
        if (mapping != tag)
            needs_entry(mapping, "another tag's mapping");

    if (require_mtc_clean) {
        mtc.forEach([&](const MtcEntry &e) {
            if (e.valid && e.dirty)
                out.push_back("map-table cache dirty at commit: tag " +
                              hex(e.tag));
        });
    }
    return out;
}

InvariantSink::InvariantSink(const IntermittentArch &arch_,
                             const SystemConfig &config)
    : arch(arch_),
      nvmr(dynamic_cast<const NvmrArch *>(&arch_)),
      cfg(config),
      blockBytes(config.cache.blockBytes),
      warEnabled(std::string(arch_.name()) != "ideal")
{
}

void
InvariantSink::flag(const TraceEvent &ev, const char *checker,
                    std::string detail)
{
    ++total;
    if (viols.size() >= kMaxRetained)
        return;
    viols.push_back({checker, std::move(detail), ev.cycle,
                     eventKindName(ev.kind)});
}

void
InvariantSink::clearInterval()
{
    readFirst.clear();
    writeFirst.clear();
    volatileRenames.clear();
}

void
InvariantSink::rebuildCommitted()
{
    committedPhys.clear();
    homeFree.clear();
    if (!nvmr)
        return;
    nvmr->mapTableRef().forEach([&](Addr tag, Addr mapping) {
        if (mapping == tag)
            return;
        committedPhys[mapping] = tag;
        homeFree.insert(tag);
    });
}

void
InvariantSink::deepChecks(const TraceEvent &ev, bool at_commit,
                          const std::unordered_set<Addr> *in_flight)
{
    if (!nvmr)
        return;
    auto lines = deepCheckNvmr(
        nvmr->mapTableRef(), nvmr->freeListRef(), nvmr->mtCacheRef(),
        nvmr->reservedBase(), blockBytes,
        cfg.effectiveFreeListEntries(), at_commit, in_flight);
    for (auto &line : lines) {
        const char *checker = "map_injectivity";
        if (line.find("cache dirty") != std::string::npos)
            checker = "mtc_commit_clean";
        else if (line.find("free") != std::string::npos ||
                 line.find("leak") != std::string::npos)
            checker = "freelist_conservation";
        flag(ev, checker, std::move(line));
    }
}

void
InvariantSink::onRename(const TraceEvent &ev)
{
    Addr tag = ev.a0;
    Addr fresh = ev.a1;
    auto it = volatileRenames.find(fresh);
    if (it != volatileRenames.end() && it->second != tag) {
        flag(ev, "rename_aliasing",
             "location " + hex(fresh) + " renamed for tag " +
                 hex(tag) + " while already holding tag " +
                 hex(it->second));
    }
    auto committed = committedPhys.find(fresh);
    if (committed != committedPhys.end() && committed->second != tag) {
        flag(ev, "rename_aliasing",
             "location " + hex(fresh) +
                 " handed out while still the committed mapping of "
                 "tag " +
                 hex(committed->second));
    }
    volatileRenames[fresh] = tag;
}

void
InvariantSink::onMemAccess(const TraceEvent &ev)
{
    if (epoch != Epoch::Execute || !warEnabled)
        return;
    bool is_store = (ev.a1 >> 8) != 0;
    uint32_t nbytes = static_cast<uint32_t>(ev.a1 & 0xff);
    for (uint32_t i = 0; i < nbytes; ++i) {
        Addr b = ev.a0 + i;
        if (readFirst.count(b) || writeFirst.count(b))
            continue;
        (is_store ? writeFirst : readFirst).insert(b);
    }
}

void
InvariantSink::onNvmWrite(const TraceEvent &ev)
{
    // Backup and restore machinery may rewrite committed state under
    // their own (checked elsewhere) protocols; execution may not.
    if (epoch != Epoch::Execute || !warEnabled || ev.a1 == 0)
        return;
    Addr addr = ev.a0;
    Addr block = addr & ~static_cast<Addr>(blockBytes - 1);

    // Writes to a freshly popped (uncommitted) rename target never
    // touch the recovery image.
    if (volatileRenames.count(block))
        return;

    // Translate physical back to the virtual address the CPU used.
    Addr virt_base = addr;
    if (nvmr) {
        auto it = committedPhys.find(block);
        if (it != committedPhys.end()) {
            virt_base = it->second + (addr - block);
        } else if (block >= nvmr->reservedBase()) {
            // Unmapped reserved block: scratch, not recovery data.
            return;
        } else if (homeFree.count(block)) {
            // Home whose committed data lives elsewhere: in-place
            // writes cannot damage recovery state.
            return;
        }
    }

    uint64_t mask = ev.a1;
    for (unsigned i = 0; i < kWordBytes; ++i) {
        if (!(mask & (1ull << i)))
            continue;
        Addr vb = virt_base + i;
        if (readFirst.count(vb)) {
            flag(ev, "war_freedom",
                 "committed NVM byte " + hex(addr + i) +
                     " (virtual " + hex(vb) +
                     ") overwritten after the CPU read it this "
                     "interval");
        }
    }
}

void
InvariantSink::consume(const TraceEvent &ev)
{
    switch (ev.kind) {
      case EventKind::BackupBegin:
        epoch = Epoch::Backup;
        break;
      case EventKind::BackupCommit:
        if (ev.a1 != lastCommitted + 1) {
            flag(ev, "backup_monotonicity",
                 "commit sequence " + std::to_string(ev.a1) +
                     " after committed " +
                     std::to_string(lastCommitted));
        }
        deepChecks(ev, /*at_commit=*/true);
        lastCommitted = ev.a1;
        rebuildCommitted();
        clearInterval();
        epoch = Epoch::Execute;
        break;
      case EventKind::BackupRollback:
        if (ev.a1 != lastCommitted + 1) {
            flag(ev, "backup_monotonicity",
                 "rollback dropped sequence " +
                     std::to_string(ev.a1) + " but committed is " +
                     std::to_string(lastCommitted));
        }
        break;
      case EventKind::PowerFail:
        epoch = Epoch::Recover;
        // Volatile state dies with the supply.
        gbfShadow.clear();
        clearInterval();
        break;
      case EventKind::Restore:
        // The commit event of the restored sequence can be lost to a
        // crash between the durable commit and the event record, so
        // one step forward is legal; going backward never is.
        if (ev.a1 != lastCommitted && ev.a1 != lastCommitted + 1) {
            flag(ev, "backup_monotonicity",
                 "restored sequence " + std::to_string(ev.a1) +
                     " but committed is " +
                     std::to_string(lastCommitted));
        }
        lastCommitted = ev.a1;
        deepChecks(ev, /*at_commit=*/true);
        rebuildCommitted();
        clearInterval();
        epoch = Epoch::Execute;
        break;
      case EventKind::DominanceReset:
        gbfShadow.clear();
        break;
      case EventKind::GbfInsert:
        gbfShadow.insert(ev.a0);
        break;
      case EventKind::GbfQuery:
        if (ev.a1 == 0 && gbfShadow.count(ev.a0)) {
            flag(ev, "gbf_soundness",
                 "GBF denied block " + hex(ev.a0) +
                     " inserted earlier this section (false "
                     "negative)");
        }
        break;
      case EventKind::Rename:
        onRename(ev);
        break;
      case EventKind::MemAccess:
        onMemAccess(ev);
        break;
      case EventKind::NvmWrite:
        onNvmWrite(ev);
        break;
      default:
        break;
    }
}

void
InvariantSink::finalize()
{
    if (!nvmr)
        return;
    std::unordered_set<Addr> in_flight;
    for (const auto &[fresh, tag] : volatileRenames)
        in_flight.insert(fresh);
    TraceEvent ev{0, 0, EventKind::CpuHalt, 0, 0};
    deepChecks(ev, /*at_commit=*/false, &in_flight);
}

std::string
InvariantSink::report() const
{
    std::ostringstream os;
    for (const auto &v : viols)
        os << "[" << v.checker << "] cycle " << v.cycle << " ("
           << v.event << "): " << v.detail << "\n";
    if (total > viols.size())
        os << "... and " << (total - viols.size())
           << " further violations\n";
    return os.str();
}

namespace
{

void
writeAddrSet(ByteWriter &w, const std::unordered_set<Addr> &s)
{
    w.u64(s.size());
    for (Addr a : s)
        w.pod(a);
}

void
readAddrSet(ByteReader &r, std::unordered_set<Addr> &s)
{
    s.clear();
    uint64_t n = r.count(r.u64(), sizeof(Addr));
    for (uint64_t i = 0; i < n; ++i)
        s.insert(r.pod<Addr>());
}

void
writeAddrMap(ByteWriter &w, const std::unordered_map<Addr, Addr> &m)
{
    w.u64(m.size());
    for (const auto &[k, v] : m) {
        w.pod(k);
        w.pod(v);
    }
}

void
readAddrMap(ByteReader &r, std::unordered_map<Addr, Addr> &m)
{
    m.clear();
    uint64_t n = r.count(r.u64(), 2 * sizeof(Addr));
    for (uint64_t i = 0; i < n; ++i) {
        Addr k = r.pod<Addr>();
        m[k] = r.pod<Addr>();
    }
}

} // namespace

void
InvariantSink::saveState(ByteWriter &w) const
{
    panic_if(total != 0,
             "cannot snapshot a violating invariant stream");
    w.u8(static_cast<uint8_t>(epoch));
    w.u64(lastCommitted);
    writeAddrSet(w, gbfShadow);
    writeAddrSet(w, readFirst);
    writeAddrSet(w, writeFirst);
    writeAddrMap(w, volatileRenames);
    writeAddrMap(w, committedPhys);
    writeAddrSet(w, homeFree);
}

void
InvariantSink::restoreState(ByteReader &r)
{
    epoch = static_cast<Epoch>(r.u8());
    lastCommitted = r.u64();
    readAddrSet(r, gbfShadow);
    readAddrSet(r, readFirst);
    readAddrSet(r, writeFirst);
    readAddrMap(r, volatileRenames);
    readAddrMap(r, committedPhys);
    readAddrSet(r, homeFree);
    viols.clear();
    total = 0;
}

} // namespace nvmr
