/**
 * @file
 * The NvMR map table (Section 4): an NVM-resident table mapping
 * application block addresses (tags) to the NVM location holding
 * their most recently backed-up data. Updated only during backups
 * (from dirty map-table-cache entries) and during reclamation, so its
 * contents always describe the recovery image.
 */

#ifndef NVMR_CORE_MAPTABLE_HH
#define NVMR_CORE_MAPTABLE_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/bytes.hh"
#include "common/types.hh"
#include "power/meter.hh"

namespace nvmr
{

class FaultInjector;

/** NVM-resident block-address mapping table. */
class MapTable
{
  public:
    MapTable(uint32_t capacity, const TechParams &params,
             EnergyMeter &meter);

    uint32_t capacity() const { return cap; }
    uint32_t size() const { return static_cast<uint32_t>(map.size()); }

    /**
     * Accounted lookup (one 2-word NVM entry read). Refreshes the
     * entry's (volatile) recency metadata used by reclamation.
     */
    std::optional<Addr> lookup(Addr tag);

    /**
     * Insert or update a mapping (one 2-word NVM entry write).
     * Inserting a new tag when full is a simulator bug: callers must
     * check hasRoomFor() first.
     */
    void set(Addr tag, Addr mapping);

    /** Invalidate a mapping (one NVM word write; reclamation). */
    void erase(Addr tag);

    /** True if a new tag could still be inserted. */
    bool hasRoomFor(Addr tag) const;

    /** Least-recently-used entry, the reclaim victim. */
    std::optional<std::pair<Addr, Addr>> lruEntry() const;

    /** Unaccounted lookup for validation/tests. */
    std::optional<Addr> peek(Addr tag) const;

    /** Visit every mapping as fn(tag, mapping), unaccounted (the
     *  src/check injectivity/conservation audits walk the table). */
    template <typename Fn>
    void
    forEach(Fn fn) const
    {
        for (const auto &kv : map)
            fn(kv.first, kv.second.mapping);
    }

    /** Crash injection for entry persists. An entry update is one
     *  interruptible persist boundary: the hardware flips a per-entry
     *  valid bit last, so a torn update leaves the old entry. */
    void attachFaults(FaultInjector *injector) { faults = injector; }

    // ------------------------------------------------------------------
    // Backup transaction (fault injection only)
    // ------------------------------------------------------------------

    /** Open a backup transaction: set()/erase() record the prior
     *  entry in an undo log until commit. */
    void beginTxn();

    /** Discard the undo log; updates since beginTxn stand. */
    void commitTxn();

    /** Torn backup: undo every update made since beginTxn. */
    void rollbackTxn();

    /** Serialize contents + LRU clock for a machine snapshot.
     *  Snapshots are only taken at safe points, outside backup
     *  transactions. */
    void
    saveState(ByteWriter &w) const
    {
        panic_if(txnActive, "snapshot during a map-table transaction");
        w.u64(map.size());
        for (const auto &kv : map) {
            w.pod(kv.first);
            w.pod(kv.second);
        }
        w.u64(tick);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(ByteReader &r)
    {
        map.clear();
        undoLog.clear();
        txnActive = false;
        uint64_t n = r.count(r.u64(), sizeof(Addr) + sizeof(Entry));
        for (uint64_t i = 0; i < n; ++i) {
            Addr tag = r.pod<Addr>();
            map[tag] = r.pod<Entry>();
        }
        tick = r.u64();
    }

  private:
    struct Entry
    {
        Addr mapping;
        uint64_t lastUse;
    };

    uint32_t cap;
    const TechParams &tech;
    EnergyMeter &meter;
    FaultInjector *faults = nullptr;
    std::unordered_map<Addr, Entry> map;
    uint64_t tick = 0;

    bool txnActive = false;
    /** First-touch undo log: tag -> entry before the transaction
     *  (nullopt = tag was absent). */
    std::unordered_map<Addr, std::optional<Entry>> undoLog;

    void recordUndo(Addr tag);
};

} // namespace nvmr

#endif // NVMR_CORE_MAPTABLE_HH
