#include "arch/arch.hh"

#include "common/log.hh"

namespace nvmr
{

const char *
backupReasonName(BackupReason reason)
{
    switch (reason) {
      case BackupReason::Initial: return "initial";
      case BackupReason::Policy: return "policy";
      case BackupReason::IdempotencyViolation: return "violation";
      case BackupReason::MtCacheEviction: return "mtcache_eviction";
      case BackupReason::MapTableFull: return "maptable_full";
      case BackupReason::FreeListEmpty: return "freelist_empty";
      case BackupReason::OopBufferFull: return "oop_buffer_full";
      case BackupReason::BufferFull: return "buffer_full";
      case BackupReason::TaskBoundary: return "task_boundary";
      case BackupReason::Final: return "final";
      default: return "<bad>";
    }
}

IntermittentArch::IntermittentArch(const SystemConfig &config, Nvm &nvm_,
                                   EnergyMeter &mtr)
    : cfg(config), nvm(nvm_), meter(mtr), cache(config.cache,
                                              config.tech, mtr)
{
    statRegistry.add(&archStats.backups);
    statRegistry.add(&archStats.violations);
    statRegistry.add(&archStats.renames);
    statRegistry.add(&archStats.reclaims);
    statRegistry.add(&archStats.restores);
    statRegistry.add(&archStats.powerFailures);
    statRegistry.add(&archStats.tornBackups);
    statRegistry.add(&archStats.eccCorrected);
    statRegistry.add(&archStats.eccUncorrectable);
}

void
IntermittentArch::initialize(const Program &prog)
{
    nvm.loadImage(0, prog.data);
    Addr end = prog.dataSize();
    uint32_t block = cfg.cache.blockBytes;
    appEnd = (end + block - 1) / block * block;
    fatal_if(appEnd > nvm.sizeBytes(),
             "program data does not fit in NVM");
}

// ----------------------------------------------------------------------
// Access paths
// ----------------------------------------------------------------------

CacheLine &
IntermittentArch::handleMiss(Addr block_addr)
{
    if (tracer)
        tracer->record(EventKind::CacheMiss, block_addr);
    CacheLine &victim = cache.victim(block_addr);
    if (victim.valid) {
        if (tracer)
            tracer->record(EventKind::CacheEvict, victim.blockAddr,
                           victim.compositeReadDominated() ? 1 : 0);
        evictLine(victim);
    }
    // evictLine must leave the line clean; drop it.
    panic_if(victim.valid && victim.dirty,
             "evictLine left a dirty line behind");
    cache.invalidate(victim);

    fetchBlock(block_addr, victim.data);
    cache.fill(victim, block_addr, victim.data);
    afterFill(victim);
    return victim;
}

CacheLine &
IntermittentArch::access(Addr addr, uint32_t nbytes, bool is_store)
{
    Addr block = cache.blockAlign(addr);
    CacheLine *line;
    if (lbfTracking) {
        // Dominance-tracking hot path: the SRAM lookup and the LBF
        // state update are charged in one batched meter call and the
        // span touch is inlined, so a cache hit costs no virtual
        // dispatch.
        meter.consume(cfg.tech.cacheAccessNj + cfg.tech.bloomNj);
        line = cache.lookupUncharged(block);
        if (!line)
            line = &handleMiss(block);
        else if (tracer)
            tracer->record(EventKind::CacheHit, block);
        line->touchSpan(addr - block, nbytes, is_store);
    } else {
        line = cache.lookup(block);
        if (!line)
            line = &handleMiss(block);
        else if (tracer)
            tracer->record(EventKind::CacheHit, block);
        onAccess(*line, addr - block, nbytes, is_store);
    }
    if (tracer)
        tracer->record(EventKind::MemAccess, addr,
                       (static_cast<uint64_t>(is_store) << 8) | nbytes);
    return *line;
}

void
IntermittentArch::fetchBlock(Addr block_addr, std::span<Word> out)
{
    for (uint32_t w = 0; w < out.size(); ++w)
        out[w] = nvm.readWord(block_addr + w * kWordBytes);
}

void
IntermittentArch::onAccess(CacheLine &, uint32_t, uint32_t, bool)
{
}

Word
IntermittentArch::loadWord(Addr addr)
{
    panic_if(addr % kWordBytes != 0, "misaligned load at ", addr);
    CacheLine &line = access(addr, kWordBytes, false);
    return line.data[cache.wordIndex(addr)];
}

void
IntermittentArch::storeWord(Addr addr, Word value)
{
    panic_if(addr % kWordBytes != 0, "misaligned store at ", addr);
    CacheLine &line = access(addr, kWordBytes, true);
    uint32_t wi = cache.wordIndex(addr);
    line.data[wi] = value;
    line.markDirty();
    line.dirtyWordMask |= 1u << wi;
}

uint8_t
IntermittentArch::loadByte(Addr addr)
{
    CacheLine &line = access(addr, 1, false);
    uint32_t wi = cache.wordIndex(addr & ~3u);
    return static_cast<uint8_t>(line.data[wi] >> (8 * (addr & 3u)));
}

void
IntermittentArch::storeByte(Addr addr, uint8_t value)
{
    // Dominance handling of the partial write lives in
    // CacheLine::touchSpan: with word-granular LBF (Table 2) a byte
    // store counts as a read (it only partially overwrites the
    // tracked unit -- found by differential fuzzing, see the
    // PartialWordStore* regressions); with byte-granular LBF it is
    // a genuine overwrite of its unit.
    CacheLine &line = access(addr, 1, true);
    uint32_t wi = cache.wordIndex(addr & ~3u);
    unsigned shift = 8 * (addr & 3u);
    line.data[wi] = (line.data[wi] & ~(0xffu << shift)) |
                    (static_cast<Word>(value) << shift);
    line.markDirty();
    line.dirtyWordMask |= 1u << wi;
}

// ----------------------------------------------------------------------
// Backup / restore shared pieces
// ----------------------------------------------------------------------

void
IntermittentArch::persistSnapshot(const CpuSnapshot &snap)
{
    // Registers + PC are written to a double-buffered NVM region;
    // model as persistWords word writes (no address-level wear, the
    // region alternates between two buffers). Under fault injection
    // each word is an interruptible persist boundary; a crash mid-
    // sequence leaves the staged slot's commit record unwritten, so
    // restore keeps using the other slot.
    if (faults && faults->enabled()) {
        for (unsigned i = 0; i < CpuSnapshot::persistWords; ++i) {
            faults->persistPoint();
            meter.addCycles(cfg.tech.flashWriteCycles);
            meter.consume(cfg.tech.flashWriteWordNj);
        }
    } else {
        for (unsigned i = 0; i < CpuSnapshot::persistWords; ++i) {
            meter.addCycles(cfg.tech.flashWriteCycles);
            meter.consume(cfg.tech.flashWriteWordNj);
        }
    }
    BackupSlot &target = snapSlots[1 - activeSlot];
    target.seq = committedSeq + 1;
    target.snap = snap;
    snapStaged = true;
}

void
IntermittentArch::commitBackup(BackupReason reason)
{
    panic_if(!snapStaged, "backup committed without a snapshot");
    // The last NVM word this backup persisted is its commit record;
    // at this point it has landed, so the staged slot becomes the
    // recovery image. Pure bookkeeping: no charges, no persists.
    activeSlot = 1 - activeSlot;
    committedSeq = snapSlots[activeSlot].seq;
    snapStaged = false;
    if (faults && faults->enabled())
        faults->noteBackupCommit();
    if (txnOpen) {
        txnCommitted = true;
        onBackupCommitted();
    }
    ++archStats.backups;
    ++archStats.backupsByReason[static_cast<size_t>(reason)];
}

void
IntermittentArch::beginBackupTxn()
{
    if (!faults || !faults->enabled())
        return; // zero-cost when fault injection is off
    txnOpen = true;
    txnCommitted = false;
    redoJournal.clear();
    shadowCapture();
}

void
IntermittentArch::finishBackupTxn()
{
    if (!txnOpen)
        return;
    // Replay the deferred home writes now that the commit record is
    // durable. A crash mid-replay re-runs the whole journal at
    // restore -- replay is idempotent (last-write-wins per word and
    // the journal only holds committed data).
    for (const auto &entry : redoJournal)
        nvm.writeWord(entry.first, entry.second);
    redoJournal.clear();
    txnOpen = false;
    txnCommitted = false;
}

void
IntermittentArch::journaledWriteBlock(Addr home, const CacheLine &line)
{
    chargeJournalWrite(cfg.cache.wordsPerBlock());
    if (txnOpen) {
        for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w)
            redoJournal.emplace_back(home + w * kWordBytes,
                                     line.data[w]);
    } else {
        writeBlockTo(home, line);
    }
}

void
IntermittentArch::journaledWriteWord(Addr addr, Word value)
{
    if (txnOpen) {
        chargeJournalWrite(1);
        redoJournal.emplace_back(addr, value);
    } else {
        nvm.writeWord(addr, value);
    }
}

void
IntermittentArch::writeBlockTo(Addr target, const CacheLine &line)
{
    for (uint32_t w = 0; w < cfg.cache.wordsPerBlock(); ++w)
        nvm.writeWord(target + w * kWordBytes, line.data[w]);
}

void
IntermittentArch::chargeJournalWrite(uint64_t words)
{
    // The journal alternates between two dedicated NVM regions, so
    // it is charged for energy and time but not per-word wear.
    if (!cfg.modelBackupAtomicity)
        return;
    if (faults && faults->enabled()) {
        // Word-granular, interruptible journal appends. Kept on a
        // separate branch so the fault-free path charges in the
        // exact same bulk operations as the seed (bit-identical
        // accounting).
        for (uint64_t w = 0; w < words; ++w) {
            faults->persistPoint();
            meter.addCycles(cfg.tech.flashWriteCycles);
            meter.consume(cfg.tech.flashWriteWordNj);
        }
    } else {
        meter.addCycles(words * cfg.tech.flashWriteCycles);
        meter.consume(static_cast<double>(words) *
                      cfg.tech.flashWriteWordNj);
    }
}

void
IntermittentArch::onPowerFail()
{
    ++archStats.powerFailures;
    cache.invalidateAll();
    if (txnOpen && !txnCommitted) {
        // Torn backup: its commit record never landed. Roll the
        // shadowed NVM metadata back to the previous recovery image
        // and drop the un-replayed journal. Volatile bookkeeping
        // only -- the physical prefix the crash left behind is in
        // blocks the previous image does not reference.
        shadowRollback();
        redoJournal.clear();
        ++archStats.tornBackups;
        if (tracer)
            tracer->record(EventKind::BackupRollback, 0,
                           committedSeq + 1);
    }
    // A committed txn keeps its journal: performRestore replays it.
    txnOpen = false;
    txnCommitted = false;
    snapStaged = false;
}

CpuSnapshot
IntermittentArch::performRestore()
{
    panic_if(committedSeq == 0, "restore without a persisted backup");
    // Committed backup, crash before the journal home writes
    // finished replaying: replay the whole journal (idempotent).
    if (!redoJournal.empty()) {
        for (const auto &entry : redoJournal)
            nvm.writeWord(entry.first, entry.second);
        redoJournal.clear();
    }
    // Read back registers + PC from the slot whose commit record
    // matches the last committed sequence number.
    for (unsigned i = 0; i < CpuSnapshot::persistWords; ++i) {
        meter.addCycles(cfg.tech.flashReadCycles);
        meter.consume(cfg.tech.flashReadWordNj);
    }
    ++archStats.restores;
    panic_if(snapSlots[activeSlot].seq != committedSeq,
             "backup slot does not match committed sequence");
    return snapSlots[activeSlot].snap;
}

void
IntermittentArch::saveState(ByteWriter &w) const
{
    panic_if(txnOpen, "snapshot during an open backup transaction");
    cache.saveState(w);
    w.pod(snapSlots);
    w.u32(activeSlot);
    w.u64(committedSeq);
    w.boolean(snapStaged);
    w.u64(redoJournal.size());
    for (const auto &entry : redoJournal) {
        w.pod(entry.first);
        w.pod(entry.second);
    }
    w.pod(appEnd);
    // ArchStats: the scalar values in declaration order, then the
    // per-reason counters.
    w.f64(archStats.backups.value());
    w.f64(archStats.violations.value());
    w.f64(archStats.renames.value());
    w.f64(archStats.reclaims.value());
    w.f64(archStats.restores.value());
    w.f64(archStats.powerFailures.value());
    w.f64(archStats.tornBackups.value());
    w.f64(archStats.eccCorrected.value());
    w.f64(archStats.eccUncorrectable.value());
    w.pod(archStats.backupsByReason);
}

void
IntermittentArch::restoreState(ByteReader &r)
{
    cache.restoreState(r);
    snapSlots = r.pod<std::array<BackupSlot, 2>>();
    activeSlot = r.u32();
    committedSeq = r.u64();
    snapStaged = r.boolean();
    redoJournal.clear();
    uint64_t journal_entries = r.count(r.u64(), sizeof(Addr) + sizeof(Word));
    redoJournal.reserve(journal_entries);
    for (uint64_t i = 0; i < journal_entries; ++i) {
        Addr a = r.pod<Addr>();
        Word v = r.pod<Word>();
        redoJournal.emplace_back(a, v);
    }
    appEnd = r.pod<Addr>();
    txnOpen = false;
    txnCommitted = false;
    archStats.backups.set(r.f64());
    archStats.violations.set(r.f64());
    archStats.renames.set(r.f64());
    archStats.reclaims.set(r.f64());
    archStats.restores.set(r.f64());
    archStats.powerFailures.set(r.f64());
    archStats.tornBackups.set(r.f64());
    archStats.eccCorrected.set(r.f64());
    archStats.eccUncorrectable.set(r.f64());
    archStats.backupsByReason =
        r.pod<std::array<uint64_t, kNumBackupReasons>>();
}

void
IntermittentArch::syncFaultCounters(const FaultStats &fs)
{
    archStats.eccCorrected.set(static_cast<double>(fs.eccCorrected));
    archStats.eccUncorrectable.set(
        static_cast<double>(fs.eccUncorrectable));
}

NanoJoules
IntermittentArch::restoreCostNowNj() const
{
    return nvmReadCostNj(CpuSnapshot::persistWords);
}

Addr
IntermittentArch::inspectMapping(Addr addr) const
{
    return addr;
}

Word
IntermittentArch::inspectWord(Addr addr) const
{
    Addr block = cache.blockAlign(addr);
    if (const CacheLine *line = cache.peek(block))
        return line->data[cache.wordIndex(addr)];
    Addr mapped = inspectMapping(block) + (addr - block);
    return nvm.inspectWord(mapped);
}

// ----------------------------------------------------------------------
// DominanceArch
// ----------------------------------------------------------------------

DominanceArch::DominanceArch(const SystemConfig &config, Nvm &nvm_,
                             EnergyMeter &mtr)
    : IntermittentArch(config, nvm_, mtr),
      gbf(config.gbfBits, config.gbfHashes, config.tech, mtr)
{
    lbfTracking = true;
}

void
DominanceArch::onAccess(CacheLine &line, uint32_t offset_in_block,
                        uint32_t nbytes, bool is_store)
{
    meter.consume(cfg.tech.bloomNj); // LBF state update
    line.touchSpan(offset_in_block, nbytes, is_store);
}

void
DominanceArch::afterFill(CacheLine &line)
{
    // Section 4.5: a GBF hit means the block was read-dominated when
    // it was last evicted in this code section; conservatively mark
    // every word read-dominated.
    bool hit;
    if (gbf.singleWord()) {
        // Hash the lanes once per cache residency: the eviction-path
        // insert reuses the mask.
        line.gbfMask = gbf.laneMask(line.blockAddr);
        hit = gbf.maybeContainsMask(line.gbfMask);
    } else {
        line.gbfMask = 0;
        hit = gbf.maybeContains(line.blockAddr);
    }
    if (tracer)
        tracer->record(EventKind::GbfQuery, line.blockAddr, hit);
    if (hit)
        line.markAllReadDominated();
}

void
DominanceArch::evictLine(CacheLine &line)
{
    bool read_dom = line.compositeReadDominated();
    if (read_dom) {
        if (line.gbfMask)
            gbf.insertMask(line.gbfMask);
        else
            gbf.insert(line.blockAddr);
        if (tracer)
            tracer->record(EventKind::GbfInsert, line.blockAddr);
    }
    if (!line.dirty)
        return;
    if (read_dom) {
        ++archStats.violations;
        if (tracer)
            tracer->record(EventKind::Violation, line.blockAddr);
        violatingWriteback(line);
    } else {
        normalWriteback(line);
    }
}

void
DominanceArch::normalWriteback(CacheLine &line)
{
    writeBlockTo(line.blockAddr, line);
    line.markClean();
}

void
DominanceArch::resetDominanceState()
{
    gbf.reset();
    cache.resetLbf();
    if (tracer)
        tracer->record(EventKind::DominanceReset);
}

void
DominanceArch::onPowerFail()
{
    IntermittentArch::onPowerFail();
    // The GBF/LBF are SRAM: their state is lost. A restore begins a
    // new intermittent code section anyway, which starts empty.
    gbf.reset();
}

void
DominanceArch::saveState(ByteWriter &w) const
{
    IntermittentArch::saveState(w);
    w.vec(gbf.rawWords());
}

void
DominanceArch::restoreState(ByteReader &r)
{
    IntermittentArch::restoreState(r);
    std::vector<uint64_t> words = r.vec<uint64_t>();
    if (r.ok())
        gbf.setRawWords(words);
}

} // namespace nvmr
