/**
 * @file
 * The NvMR map-table cache (Section 4.2): an on-chip SRAM,
 * set-associative cache of map-table entries. Each entry holds the
 * five fields of Figure 7: valid, dirty, tag, old mapping (the
 * persisted recovery location) and new mapping (the location written
 * since the last backup). A dirty entry eviction forces a backup so
 * the NVM map table always reflects the most recent backup.
 */

#ifndef NVMR_CORE_MTCACHE_HH
#define NVMR_CORE_MTCACHE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/trace.hh"
#include "power/meter.hh"

namespace nvmr
{

/** One map-table cache entry (Figure 7). */
struct MtcEntry
{
    bool valid = false;
    bool dirty = false;
    Addr tag = kNoAddr;
    Addr oldMap = kNoAddr;
    Addr newMap = kNoAddr;
    uint64_t lruTick = 0;
    /** Tick the entry was installed at (residency measurement). */
    uint64_t installTick = 0;

    /** True once this tag has a persisted NVM map-table entry;
     *  used to bound pending new-tag insertions. */
    bool inMapTable = false;
};

/** SRAM cache over the NVM map table. */
class MapTableCache
{
  public:
    /**
     * @param entries Total entries (512 in Table 2).
     * @param ways Associativity; 0 means fully associative.
     */
    MapTableCache(uint32_t entries, uint32_t ways,
                  const TechParams &params, EnergyMeter &meter);

    uint32_t numEntries() const { return entries; }

    /** Attach an event sink (hit/miss/evict events; null = off). */
    void attachTrace(TraceSink *sink_) { tracer = sink_; }

    /** Attach a residency histogram sampled at each eviction with
     *  the number of LRU ticks the victim stayed installed. */
    void attachResidency(Histogram *hist) { residency = hist; }

    /** Accounted lookup; refreshes LRU on hit, nullptr on miss. */
    MtcEntry *lookup(Addr tag);

    /** Side-effect-free lookup for inspection: the same set index as
     *  lookup(), but no energy, no LRU refresh and no trace event.
     *  Returns nullptr when the tag is not cached. */
    const MtcEntry *peek(Addr tag) const;

    /** Choose the fill victim for a tag (invalid way preferred,
     *  else LRU). The caller handles a dirty victim (backup). */
    MtcEntry &victim(Addr tag);

    /** Install an entry into a line obtained from victim(). */
    void install(MtcEntry &slot, Addr tag, Addr old_map, Addr new_map,
                 bool dirty, bool in_map_table);

    /** Mark an entry dirty (rename recorded since the last backup). */
    void markDirty(MtcEntry &entry);

    /** Mark an entry clean (its mapping was flushed to the map
     *  table). */
    void markClean(MtcEntry &entry);

    /** Invalidate the entry for a tag if present (reclamation). */
    void invalidateTag(Addr tag);

    /** Drop everything (power loss). */
    void invalidateAll();

    /** Visit every entry. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (MtcEntry &e : slots)
            fn(e);
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const MtcEntry &e : slots)
            fn(e);
    }

    uint32_t dirtyCount() const;

    /**
     * Record that an entry's tag now has an NVM map-table slot (the
     * backup flush persisted it). Callers must route the flip through
     * here -- not write entry.inMapTable directly -- so the pending
     * new-tag census stays exact.
     */
    void
    markInMapTable(MtcEntry &entry)
    {
        if (entry.valid && !entry.inMapTable)
            --newTagCnt;
        entry.inMapTable = true;
    }

    /** Valid entries whose tag has no NVM map-table entry yet
     *  (O(1): polled by every backupCostNowNj under a JIT policy). */
    uint32_t pendingNewTags() const;

    /** Serialize entries + LRU clock + derived counters for a
     *  machine snapshot. */
    void
    saveState(ByteWriter &w) const
    {
        w.vec(slots);
        w.u64(tick);
        w.u32(dirtyCnt);
        w.u32(newTagCnt);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(ByteReader &r)
    {
        slots = r.vec<MtcEntry>();
        panic_if(r.ok() && slots.size() != entries,
                 "snapshot map-table cache has wrong geometry");
        tick = r.u64();
        dirtyCnt = r.u32();
        newTagCnt = r.u32();
    }

  private:
    uint32_t entries;
    uint32_t ways;
    const TechParams &tech;
    EnergyMeter &meter;
    std::vector<MtcEntry> slots;
    uint64_t tick = 0;
    uint32_t dirtyCnt = 0;
    uint32_t newTagCnt = 0; // valid entries with !inMapTable
    /** numSets() - 1, precomputed so setOf never divides. */
    uint32_t setMask = 0;
    TraceSink *tracer = nullptr;
    Histogram *residency = nullptr;

    uint32_t numSets() const { return entries / ways; }
    uint32_t setOf(Addr tag) const;
};

} // namespace nvmr

#endif // NVMR_CORE_MTCACHE_HH
