#include "arch/hoop.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvmr
{

namespace
{

/** SRAM energy for touching one OOP-buffer entry. */
constexpr NanoJoules kOopBufferTouchNj = 0.2;

} // namespace

HoopArch::HoopArch(const SystemConfig &config, Nvm &nvm_,
                   EnergyMeter &mtr)
    : IntermittentArch(config, nvm_, mtr)
{
}

void
HoopArch::fetchBlock(Addr block_addr, std::span<Word> out)
{
    // Reconstruct the block: OOP buffer first (newest), then the
    // committed redo log (via the free mapping table), then home.
    // Either way each word costs one NVM-scale read; buffer hits are
    // an SRAM touch. One probe per structure per word.
    for (uint32_t w = 0; w < out.size(); ++w) {
        Addr addr = block_addr + w * kWordBytes;
        auto buf = bufNewest.find(addr);
        if (buf != bufNewest.end()) {
            meter.consume(kOopBufferTouchNj);
            out[w] = buf->second;
            continue;
        }
        auto log = committedLog.find(addr);
        if (faults && faults->enabled() && log == committedLog.end()) {
            // A genuine home read: go through the Nvm so the word
            // passes the bit-error / ECC pipeline (log hits below
            // serve SRAM-held data and only charge at NVM scale).
            out[w] = nvm.readWord(addr);
        } else {
            meter.addCycles(cfg.tech.flashReadCycles);
            meter.consume(cfg.tech.flashReadWordNj);
            out[w] = log != committedLog.end() ? log->second
                                               : nvm.inspectWord(addr);
        }
    }
}

void
HoopArch::evictLine(CacheLine &line)
{
    // The cache has no per-word dirty bits (neither do Clank's or
    // NvMR's), so the whole block's words are appended to the OOP
    // buffer; the paper's "high store locality packs better"
    // observation follows from this block-granular ingestion.
    if (!line.dirty)
        return;
    for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w) {
        Addr addr = line.blockAddr + w * kWordBytes;
        if (oopBuffer.size() >= cfg.oopBufferEntries) {
            // Buffer full: HOOP backs up, which commits this line's
            // words too and leaves nothing to insert.
            panic_if(!host, "HoopArch needs an attached BackupHost");
            host->requestBackup(BackupReason::OopBufferFull);
            panic_if(line.dirty, "backup left the line dirty");
            return;
        }
        meter.consume(kOopBufferTouchNj);
        oopBuffer.emplace_back(addr, line.data[w]);
        bufNewest[addr] = line.data[w];
        if (line.blockAddr != bufLastBlock) {
            ++bufGroups;
            bufLastBlock = line.blockAddr;
        }
        if (tracer)
            tracer->record(EventKind::OopAppend, addr);
    }
    line.markClean();
    line.dirtyWordMask = 0;
}

uint64_t
HoopArch::packedFlushWords() const
{
    // Pack word updates into slices: one header word per run of
    // same-block updates plus one word per update. No temporal
    // deduplication -- the buffer is a log. The buffer's run count is
    // maintained incrementally (bufGroups/bufLastBlock), so only the
    // dirty cache lines -- which flush after the buffer and continue
    // its run sequence -- are walked here.
    uint64_t words = oopBuffer.size();
    uint64_t groups = bufGroups;
    if (cache.dirtyCount() != 0) {
        Addr prev_block = bufLastBlock;
        cache.forEachLine([&](const CacheLine &line) {
            if (!line.valid || !line.dirty)
                return;
            if (line.blockAddr != prev_block) {
                ++groups;
                prev_block = line.blockAddr;
            }
            words += cfg.cache.wordsPerBlock();
        });
    }
    return words + groups;
}

void
HoopArch::garbageCollect()
{
    // Scan the log (one read per region entry) and apply the latest
    // committed value of every word to its home address.
    meter.addCycles(regionFill * cfg.tech.flashReadCycles);
    meter.consume(static_cast<double>(regionFill) *
                  cfg.tech.flashReadWordNj);
    if (tracer)
        tracer->record(EventKind::OopGc, committedLog.size(),
                       regionFill);
    // Apply in address order: committedLog is an unordered map, and
    // the writes are accounted (wear, fault windows), so iteration
    // order must not depend on hashing if forked runs are to stay
    // byte-identical with from-scratch ones.
    std::vector<std::pair<Addr, Word>> entries(committedLog.begin(),
                                               committedLog.end());
    std::sort(entries.begin(), entries.end());
    for (const auto &[addr, val] : entries)
        nvm.writeWord(addr, val);
    committedLog.clear();
    regionFill = 0;
    ++gcs;
}

void
HoopArch::flushBufferToRegion()
{
    // Gather the update log: buffered entries in order, then the
    // dirty words still sitting in the cache (they are newest).
    std::vector<std::pair<Addr, Word>> updates = oopBuffer;
    cache.forEachLine([&](CacheLine &line) {
        if (!line.valid || !line.dirty)
            return;
        for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w)
            updates.emplace_back(line.blockAddr + w * kWordBytes,
                                 line.data[w]);
        line.markClean();
        line.dirtyWordMask = 0;
    });

    uint32_t incoming = static_cast<uint32_t>(updates.size());
    if (regionFill + incoming > cfg.oopRegionEntries)
        garbageCollect();
    if (incoming > cfg.oopRegionEntries) {
        // The update set cannot fit the region at all (tiny-platform
        // configuration): apply it straight to the home addresses.
        // The in-place writes destroy recovery state, so under an
        // open backup transaction they are journaled and deferred
        // past the commit record; any stale committed-log entries
        // for these words must go (shadow-rolled on a torn backup).
        for (const auto &[addr, val] : updates) {
            journaledWriteWord(addr, val);
            committedLog.erase(addr);
        }
        oopBuffer.clear();
        bufNewest.clear();
        bufGroups = 0;
        bufLastBlock = kNoAddr;
        return;
    }

    // Append packed slices: one header write per run of same-block
    // updates plus one write per word update.
    Addr prev_block = kNoAddr;
    for (const auto &[addr, val] : updates) {
        Addr block = addr & ~(cfg.cache.blockBytes - 1);
        if (block != prev_block) {
            meter.addCycles(cfg.tech.flashWriteCycles);
            meter.consume(cfg.tech.flashWriteWordNj);
            prev_block = block;
        }
        meter.addCycles(cfg.tech.flashWriteCycles);
        meter.consume(cfg.tech.flashWriteWordNj);
        committedLog[addr] = val;
    }
    regionFill += incoming;
    oopBuffer.clear();
    bufNewest.clear();
    bufGroups = 0;
    bufLastBlock = kNoAddr;
}

void
HoopArch::performBackup(const CpuSnapshot &snap, BackupReason reason)
{
    flushBufferToRegion();
    persistSnapshot(snap);
    commitBackup(reason);
}

void
HoopArch::shadowCapture()
{
    shadowLog = committedLog;
    shadowFill = regionFill;
    shadowValid = true;
}

void
HoopArch::shadowRollback()
{
    if (!shadowValid)
        return;
    committedLog = std::move(shadowLog);
    regionFill = shadowFill;
    shadowLog.clear();
    shadowValid = false;
}

void
HoopArch::onBackupCommitted()
{
    shadowLog.clear();
    shadowValid = false;
}

NanoJoules
HoopArch::backupCostNowNj() const
{
    NanoJoules cost = snapshotCostNj();
    uint64_t flush_words = packedFlushWords();
    cost += nvmWriteCostNj(flush_words);
    // A flush may first have to garbage-collect the region.
    uint64_t incoming = flush_words; // upper bound on update count
    if (regionFill + incoming > cfg.oopRegionEntries) {
        cost += nvmReadCostNj(regionFill);
        cost += nvmWriteCostNj(committedLog.size());
    }
    return cost * 1.05 + 10.0;
}

void
HoopArch::onPowerFail()
{
    IntermittentArch::onPowerFail();
    oopBuffer.clear();
    bufNewest.clear();
    bufGroups = 0;
    bufLastBlock = kNoAddr;
}

CpuSnapshot
HoopArch::performRestore()
{
    CpuSnapshot snap = IntermittentArch::performRestore();
    // HOOP garbage-collects the redo log during restore (Section 2.1).
    garbageCollect();
    return snap;
}

NanoJoules
HoopArch::restoreCostNowNj() const
{
    return IntermittentArch::restoreCostNowNj() +
           nvmReadCostNj(regionFill) +
           nvmWriteCostNj(committedLog.size()) + 10.0;
}

Word
HoopArch::inspectWord(Addr addr) const
{
    if (const CacheLine *line = cache.peek(cache.blockAlign(addr)))
        return line->data[cache.wordIndex(addr)];
    // Newest update wins: bufNewest holds the last value appended for
    // each buffered address (same answer a backwards buffer scan
    // would give, without the scan).
    auto buf = bufNewest.find(addr);
    if (buf != bufNewest.end())
        return buf->second;
    auto log = committedLog.find(addr);
    if (log != committedLog.end())
        return log->second;
    return nvm.inspectWord(addr);
}

void
HoopArch::saveState(ByteWriter &w) const
{
    IntermittentArch::saveState(w);
    // Snapshots happen only at instruction boundaries outside backup
    // transactions, where the shadow log is dead state.
    panic_if(shadowValid, "snapshot mid-backup-transaction");
    w.u64(oopBuffer.size());
    for (const auto &entry : oopBuffer) {
        w.pod(entry.first);
        w.pod(entry.second);
    }
    w.u64(bufNewest.size());
    for (const auto &[addr, val] : bufNewest) {
        w.pod(addr);
        w.pod(val);
    }
    w.u64(committedLog.size());
    for (const auto &[addr, val] : committedLog) {
        w.pod(addr);
        w.pod(val);
    }
    w.u64(bufGroups);
    w.pod(bufLastBlock);
    w.u32(regionFill);
    w.u64(gcs);
}

void
HoopArch::restoreState(ByteReader &r)
{
    IntermittentArch::restoreState(r);
    oopBuffer.clear();
    bufNewest.clear();
    committedLog.clear();
    uint64_t nbuf = r.count(r.u64(), sizeof(Addr) + sizeof(Word));
    oopBuffer.reserve(nbuf);
    for (uint64_t i = 0; i < nbuf; ++i) {
        Addr addr = r.pod<Addr>();
        Word val = r.pod<Word>();
        oopBuffer.emplace_back(addr, val);
    }
    uint64_t nnewest = r.count(r.u64(), sizeof(Addr) + sizeof(Word));
    for (uint64_t i = 0; i < nnewest; ++i) {
        Addr addr = r.pod<Addr>();
        bufNewest[addr] = r.pod<Word>();
    }
    uint64_t nlog = r.count(r.u64(), sizeof(Addr) + sizeof(Word));
    for (uint64_t i = 0; i < nlog; ++i) {
        Addr addr = r.pod<Addr>();
        committedLog[addr] = r.pod<Word>();
    }
    bufGroups = r.u64();
    bufLastBlock = r.pod<Addr>();
    regionFill = r.u32();
    gcs = r.u64();
    shadowLog.clear();
    shadowFill = 0;
    shadowValid = false;
}

} // namespace nvmr
