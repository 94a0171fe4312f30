/**
 * @file
 * Write-back write-allocate (WBWA) set-associative data cache with the
 * per-line local bloom filter (LBF) word-state tracking that Clank and
 * NvMR use to classify words as read-dominated or write-dominated
 * within an intermittent code section.
 */

#ifndef NVMR_MEM_CACHE_HH
#define NVMR_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "power/meter.hh"

namespace nvmr
{

/**
 * LBF per-word dominance state (2 bits each in hardware):
 * Unknown=00, Read-dominated=01, Write-dominated=10. The composite
 * state of a block ORs the LSBs, so it is 1 iff any word is
 * read-dominated.
 */
enum class WordState : uint8_t
{
    Unknown = 0,
    ReadDom = 1,
    WriteDom = 2,
};

/** Cache geometry. */
struct CacheConfig
{
    uint32_t sizeBytes = 256;
    uint32_t blockBytes = 16;
    uint32_t ways = 8;

    /**
     * LBF tracking granularity in bytes: 4 (per word, Table 2's
     * design, footnote 4) or 1 (per byte — 4x the LBF SRAM, but
     * partial-word stores can then be tracked as true overwrites;
     * see bench/ablation_lbf).
     */
    uint32_t lbfGranularityBytes = 4;

    uint32_t wordsPerBlock() const { return blockBytes / kWordBytes; }
    uint32_t numBlocks() const { return sizeBytes / blockBytes; }
    uint32_t numSets() const { return numBlocks() / ways; }
    uint32_t lbfEntries() const
    {
        return blockBytes / lbfGranularityBytes;
    }
};

/** One cache line plus its tightly coupled LBF state. */
struct CacheLine
{
    bool valid = false;
    bool dirty = false;
    Addr blockAddr = kNoAddr;
    std::vector<Word> data;
    std::vector<WordState> lbf;
    uint64_t lruTick = 0;

    /** LBF tracking unit in bytes (mirrors the cache config). */
    uint32_t lbfGranularity = kWordBytes;

    /** Bit per word set by stores since the fill (HOOP packs these). */
    uint32_t dirtyWordMask = 0;

    /** GBF lane mask of blockAddr, precomputed at fill time so the
     *  eviction-path insert needs no re-hash (single-word GBF). */
    uint64_t gbfMask = 0;

    /** Owning cache's dirty-line counter (null for free-standing
     *  lines in tests); keeps dirtyCount() O(1) on the per-
     *  instruction backup-cost path. */
    uint32_t *dirtyCounter = nullptr;

    /** Set/clear the dirty flag through the owner's counter. All
     *  writers must use these (not the raw field) so the counter
     *  stays exact. */
    void
    markDirty()
    {
        if (!dirty) {
            dirty = true;
            if (dirtyCounter)
                ++*dirtyCounter;
        }
    }

    void
    markClean()
    {
        if (dirty) {
            dirty = false;
            if (dirtyCounter)
                --*dirtyCounter;
        }
    }

    /** Composite LBF state: true iff any unit is read-dominated. */
    bool
    compositeReadDominated() const
    {
        for (WordState s : lbf)
            if (s == WordState::ReadDom)
                return true;
        return false;
    }

    /**
     * Record an access covering [offset, offset+nbytes) within the
     * block; first access to a unit wins (sticky). A store only
     * write-dominates units it *fully* overwrites — a partial write
     * is a hardware read-modify-write and counts as a read
     * (re-execution would not rewrite the untouched part).
     */
    void
    touchSpan(uint32_t offset, uint32_t nbytes, bool is_store)
    {
        uint32_t first = offset / lbfGranularity;
        uint32_t last = (offset + nbytes - 1) / lbfGranularity;
        for (uint32_t u = first; u <= last; ++u) {
            if (lbf[u] != WordState::Unknown)
                continue;
            uint32_t unit_begin = u * lbfGranularity;
            bool full = is_store && offset <= unit_begin &&
                        offset + nbytes >= unit_begin + lbfGranularity;
            lbf[u] = full ? WordState::WriteDom : WordState::ReadDom;
        }
    }

    /** Word-granular convenience used by tests. */
    void
    touchWord(uint32_t word_idx, bool is_store)
    {
        touchSpan(word_idx * kWordBytes, kWordBytes, is_store);
    }

    /** Conservatively mark every unit read-dominated (GBF hit). */
    void
    markAllReadDominated()
    {
        for (WordState &s : lbf)
            s = WordState::ReadDom;
    }
};

/**
 * The data cache. Miss handling (fetch source, eviction policy
 * consequences like renaming or violation backups) is the owning
 * architecture's business: the cache only provides lookup, victim
 * selection, fill and iteration, charging SRAM access energy as it
 * goes.
 */
class DataCache
{
  public:
    DataCache(const CacheConfig &cfg, const TechParams &params,
              EnergyMeter &meter);

    const CacheConfig &config() const { return cfg; }

    /** Block-align an address. */
    Addr blockAlign(Addr addr) const { return addr & ~blockMask; }

    /** Word index of an address within its block. */
    uint32_t wordIndex(Addr addr) const
    {
        return (addr & blockMask) / kWordBytes;
    }

    /**
     * Look up a block. Charges one SRAM access and refreshes LRU on a
     * hit. Returns nullptr on miss.
     */
    CacheLine *
    lookup(Addr block_addr)
    {
        meter.consume(tech.cacheAccessNj);
        return lookupUncharged(block_addr);
    }

    /**
     * Hit/miss bookkeeping and LRU refresh without the energy
     * charge: the architecture access path batches the SRAM charge
     * with the LBF charge into one meter call per access.
     */
    CacheLine *
    lookupUncharged(Addr block_addr)
    {
        debug_assert((block_addr & blockMask) == 0,
                     "lookup of unaligned block address ", block_addr);
        CacheLine *way = &lines[setOf(block_addr) * cfg.ways];
        for (uint32_t w = 0; w < cfg.ways; ++w, ++way) {
            if (way->valid && way->blockAddr == block_addr) {
                way->lruTick = ++tick;
                ++_hits;
                return way;
            }
        }
        ++_misses;
        return nullptr;
    }

    /**
     * Side-effect-free lookup for inspection: the same set index as
     * lookupUncharged, but no energy, no LRU refresh and no hit/miss
     * count. Returns nullptr when the block is not cached.
     */
    const CacheLine *
    peek(Addr block_addr) const
    {
        const CacheLine *way = &lines[setOf(block_addr) * cfg.ways];
        for (uint32_t w = 0; w < cfg.ways; ++w, ++way)
            if (way->valid && way->blockAddr == block_addr)
                return way;
        return nullptr;
    }

    /**
     * Pick the fill victim for a block address: an invalid way if one
     * exists, else the LRU way. Does not modify the line; the caller
     * writes back / invalidates as needed, then calls fill().
     */
    CacheLine &victim(Addr block_addr);

    /**
     * Install a block into a line previously obtained from victim().
     * Data is copied unless it already is the line's own storage (the
     * miss path fetches straight into the victim); LBF resets to
     * Unknown; line becomes valid, clean, LRU-refreshed. Charges one
     * SRAM access.
     */
    void fill(CacheLine &line, Addr block_addr,
              std::span<const Word> data);

    /** Drop a line (no writeback). */
    void invalidate(CacheLine &line);

    /** Drop everything (power loss). */
    void invalidateAll();

    /** Reset all LBF states to Unknown (done at every backup). */
    void resetLbf();

    /** Visit every line (backup flush walks the dirty ones).
     *  Templated so per-instruction callers (backup-cost estimates
     *  walk the cache) pay no std::function indirection. */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (CacheLine &line : lines)
            fn(line);
    }

    template <typename Fn>
    void
    forEachLine(Fn &&fn) const
    {
        for (const CacheLine &line : lines)
            fn(line);
    }

    /** Count of valid+dirty lines (O(1): maintained by the
     *  CacheLine::markDirty/markClean protocol; consistency checked
     *  in debug builds by the out-of-line variant in cache.cc). */
#if NVMR_DEBUG_ASSERTS
    uint32_t dirtyCount() const;
#else
    uint32_t dirtyCount() const { return dirtyLines; }
#endif

    uint64_t hits() const { return _hits; }
    uint64_t misses() const { return _misses; }
    void resetStats() { _hits = _misses = 0; }

    /** Serialize the dynamic state (lines, LRU clock, stats) for a
     *  machine snapshot; geometry/wiring are reconstructed, not
     *  serialized. */
    void saveState(ByteWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(ByteReader &r);

  private:
    CacheConfig cfg;
    const TechParams &tech;
    EnergyMeter &meter;
    std::vector<CacheLine> lines; // [set * ways + way]
    uint64_t tick = 0;
    uint64_t _hits = 0;
    uint64_t _misses = 0;
    uint32_t dirtyLines = 0;

    /** Precomputed geometry (the per-access path must not divide). */
    Addr blockMask = 0;
    uint32_t blockShift = 0;
    uint32_t setMask = 0;

    uint32_t
    setOf(Addr block_addr) const
    {
        return (block_addr >> blockShift) & setMask;
    }
};

} // namespace nvmr

#endif // NVMR_MEM_CACHE_HH
