#include "mem/cache.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvmr
{

DataCache::DataCache(const CacheConfig &config, const TechParams &params,
                     EnergyMeter &mtr)
    : cfg(config), tech(params), meter(mtr)
{
    fatal_if(cfg.blockBytes == 0 || cfg.blockBytes % kWordBytes != 0,
             "block size must be a multiple of the word size");
    fatal_if(cfg.sizeBytes % cfg.blockBytes != 0,
             "cache size must be a multiple of the block size");
    fatal_if(cfg.ways == 0 || cfg.numBlocks() % cfg.ways != 0,
             "cache blocks must divide evenly into ways");
    fatal_if((cfg.numSets() & (cfg.numSets() - 1)) != 0,
             "number of sets must be a power of two");

    fatal_if(cfg.lbfGranularityBytes == 0 ||
                 cfg.blockBytes % cfg.lbfGranularityBytes != 0,
             "LBF granularity must divide the block size");
    fatal_if((cfg.blockBytes & (cfg.blockBytes - 1)) != 0,
             "block size must be a power of two");
    blockMask = cfg.blockBytes - 1;
    while ((1u << blockShift) < cfg.blockBytes)
        ++blockShift;
    setMask = cfg.numSets() - 1;
    lines.resize(cfg.numBlocks());
    for (CacheLine &line : lines) {
        line.data.assign(cfg.wordsPerBlock(), 0);
        line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
        line.lbfGranularity = cfg.lbfGranularityBytes;
        line.dirtyCounter = &dirtyLines;
    }
}

CacheLine &
DataCache::victim(Addr block_addr)
{
    uint32_t set = setOf(block_addr);
    CacheLine *lru = nullptr;
    for (uint32_t w = 0; w < cfg.ways; ++w) {
        CacheLine &line = lines[set * cfg.ways + w];
        if (!line.valid)
            return line;
        if (!lru || line.lruTick < lru->lruTick)
            lru = &line;
    }
    return *lru;
}

void
DataCache::fill(CacheLine &line, Addr block_addr,
                std::span<const Word> data)
{
    panic_if(data.size() != cfg.wordsPerBlock(),
             "fill with wrong block size");
    meter.consume(tech.cacheAccessNj);
    line.valid = true;
    line.markClean();
    line.blockAddr = block_addr;
    if (data.data() != line.data.data())
        std::copy(data.begin(), data.end(), line.data.begin());
    line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
    line.dirtyWordMask = 0;
    line.lruTick = ++tick;
}

void
DataCache::invalidate(CacheLine &line)
{
    line.valid = false;
    line.markClean();
    line.blockAddr = kNoAddr;
    line.dirtyWordMask = 0;
}

void
DataCache::invalidateAll()
{
    for (CacheLine &line : lines)
        invalidate(line);
}

void
DataCache::resetLbf()
{
    for (CacheLine &line : lines)
        line.lbf.assign(cfg.lbfEntries(), WordState::Unknown);
}

void
DataCache::saveState(ByteWriter &w) const
{
    for (const CacheLine &line : lines) {
        w.boolean(line.valid);
        w.boolean(line.dirty);
        w.pod(line.blockAddr);
        w.vec(line.data);
        w.vec(line.lbf);
        w.u64(line.lruTick);
        w.u32(line.dirtyWordMask);
        w.u64(line.gbfMask);
    }
    w.u64(tick);
    w.u64(_hits);
    w.u64(_misses);
    w.u32(dirtyLines);
}

void
DataCache::restoreState(ByteReader &r)
{
    for (CacheLine &line : lines) {
        line.valid = r.boolean();
        line.dirty = r.boolean();
        line.blockAddr = r.pod<Addr>();
        line.data = r.vec<Word>();
        line.lbf = r.vec<WordState>();
        line.lruTick = r.u64();
        line.dirtyWordMask = r.u32();
        line.gbfMask = r.u64();
        panic_if(r.ok() && (line.data.size() != cfg.wordsPerBlock() ||
                            line.lbf.size() != cfg.lbfEntries()),
                 "snapshot cache line has wrong geometry");
    }
    tick = r.u64();
    _hits = r.u64();
    _misses = r.u64();
    // The counter is re-adopted wholesale; the per-line dirty flags
    // restored above are its ground truth (debug builds cross-check
    // in dirtyCount()).
    dirtyLines = r.u32();
}

#if NVMR_DEBUG_ASSERTS
uint32_t
DataCache::dirtyCount() const
{
    uint32_t n = 0;
    for (const CacheLine &line : lines)
        n += line.dirty;
    debug_assert(n == dirtyLines,
                 "dirty-line counter out of sync: ", dirtyLines,
                 " != ", n);
    return dirtyLines;
}
#endif

} // namespace nvmr
