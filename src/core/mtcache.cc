#include "core/mtcache.hh"

#include "common/log.hh"

namespace nvmr
{

MapTableCache::MapTableCache(uint32_t num_entries, uint32_t num_ways,
                             const TechParams &params, EnergyMeter &mtr)
    : entries(num_entries), ways(num_ways ? num_ways : num_entries),
      tech(params), meter(mtr)
{
    fatal_if(entries == 0, "map table cache needs entries");
    fatal_if(ways > entries || entries % ways != 0,
             "map table cache associativity must divide entries");
    fatal_if((numSets() & (numSets() - 1)) != 0,
             "map table cache set count must be a power of two");
    setMask = numSets() - 1;
    slots.resize(entries);
}

uint32_t
MapTableCache::setOf(Addr tag) const
{
    // Tags are block addresses; hash past the block-offset bits.
    uint64_t x = tag >> 4;
    x = (x ^ (x >> 16)) * 0x45d9f3b5ull;
    return static_cast<uint32_t>(x) & setMask;
}

MtcEntry *
MapTableCache::lookup(Addr tag)
{
    meter.consumeOverhead(tech.mtCacheAccessNj);
    uint32_t set = setOf(tag);
    for (uint32_t w = 0; w < ways; ++w) {
        MtcEntry &e = slots[set * ways + w];
        if (e.valid && e.tag == tag) {
            e.lruTick = ++tick;
            if (tracer)
                tracer->record(EventKind::MtcHit, tag);
            return &e;
        }
    }
    if (tracer)
        tracer->record(EventKind::MtcMiss, tag);
    return nullptr;
}

const MtcEntry *
MapTableCache::peek(Addr tag) const
{
    const MtcEntry *e = &slots[setOf(tag) * ways];
    for (uint32_t w = 0; w < ways; ++w, ++e)
        if (e->valid && e->tag == tag)
            return e;
    return nullptr;
}

MtcEntry &
MapTableCache::victim(Addr tag)
{
    uint32_t set = setOf(tag);
    MtcEntry *lru = nullptr;
    for (uint32_t w = 0; w < ways; ++w) {
        MtcEntry &e = slots[set * ways + w];
        if (!e.valid)
            return e;
        if (!lru || e.lruTick < lru->lruTick)
            lru = &e;
    }
    return *lru;
}

void
MapTableCache::markDirty(MtcEntry &entry)
{
    if (!entry.dirty) {
        entry.dirty = true;
        ++dirtyCnt;
    }
}

void
MapTableCache::markClean(MtcEntry &entry)
{
    if (entry.dirty) {
        entry.dirty = false;
        panic_if(dirtyCnt == 0, "dirty count underflow");
        --dirtyCnt;
    }
}

void
MapTableCache::install(MtcEntry &slot, Addr tag, Addr old_map,
                       Addr new_map, bool dirty, bool in_map_table)
{
    meter.consumeOverhead(tech.mtCacheAccessNj);
    if (slot.valid) {
        if (residency)
            residency->sample(
                static_cast<double>(tick - slot.installTick));
        if (tracer)
            tracer->record(EventKind::MtcEvict, slot.tag,
                           slot.dirty ? 1 : 0);
    }
    markClean(slot);
    if (slot.valid && !slot.inMapTable)
        --newTagCnt;
    slot.valid = true;
    if (dirty)
        ++dirtyCnt;
    slot.dirty = dirty;
    slot.tag = tag;
    slot.oldMap = old_map;
    slot.newMap = new_map;
    slot.inMapTable = in_map_table;
    if (!in_map_table)
        ++newTagCnt;
    slot.lruTick = ++tick;
    slot.installTick = tick;
}

void
MapTableCache::invalidateTag(Addr tag)
{
    uint32_t set = setOf(tag);
    for (uint32_t w = 0; w < ways; ++w) {
        MtcEntry &e = slots[set * ways + w];
        if (e.valid && e.tag == tag) {
            markClean(e);
            if (!e.inMapTable)
                --newTagCnt;
            e.valid = false;
            return;
        }
    }
}

void
MapTableCache::invalidateAll()
{
    for (MtcEntry &e : slots) {
        e.valid = false;
        e.dirty = false;
    }
    dirtyCnt = 0;
    newTagCnt = 0;
}

uint32_t
MapTableCache::dirtyCount() const
{
    return dirtyCnt;
}

uint32_t
MapTableCache::pendingNewTags() const
{
#if NVMR_DEBUG_ASSERTS
    uint32_t n = 0;
    for (const MtcEntry &e : slots)
        n += e.valid && !e.inMapTable;
    debug_assert(n == newTagCnt,
                 "pending new-tag counter out of sync: ", newTagCnt,
                 " != ", n);
#endif
    return newTagCnt;
}

} // namespace nvmr
