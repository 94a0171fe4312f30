#include "arch/clank_original.hh"

#include "common/log.hh"

namespace nvmr
{

ClankOriginalArch::ClankOriginalArch(const SystemConfig &config,
                                     Nvm &nvm_, EnergyMeter &mtr)
    : IntermittentArch(config, nvm_, mtr)
{
}

void
ClankOriginalArch::trackAccess(Addr word_addr, bool is_store)
{
    meter.consume(kBufferTouchNj);
    if (readFirst.count(word_addr)) {
        if (!is_store)
            return; // reads of read-first addresses are free
        // Write-after-read on NVM: the idempotency violation. Back
        // up first; the backup clears both buffers and starts a new
        // section in which this store is the first access.
        ++archStats.violations;
        if (tracer)
            tracer->record(EventKind::Violation, word_addr);
        panic_if(!host, "ClankOriginalArch needs a BackupHost");
        host->requestBackup(BackupReason::IdempotencyViolation);
        meter.consume(kBufferTouchNj);
        writeFirst.insert(word_addr);
        return;
    }
    if (writeFirst.count(word_addr))
        return; // write-dominated: loads and stores both safe

    // First access to this address in the current section: it needs
    // a buffer entry. A full buffer forces a backup (which clears
    // both buffers) before the entry is inserted.
    std::set<Addr> &buffer = is_store ? writeFirst : readFirst;
    uint32_t capacity = is_store ? cfg.wfBufferEntries
                                 : cfg.rfBufferEntries;
    if (buffer.size() >= capacity) {
        panic_if(!host, "ClankOriginalArch needs a BackupHost");
        host->requestBackup(BackupReason::BufferFull);
        meter.consume(kBufferTouchNj);
    }
    buffer.insert(word_addr);
}

Word
ClankOriginalArch::loadWord(Addr addr)
{
    panic_if(addr % kWordBytes != 0, "misaligned load at ", addr);
    trackAccess(addr, false);
    if (tracer)
        tracer->record(EventKind::MemAccess, addr, kWordBytes);
    return nvm.readWord(addr);
}

void
ClankOriginalArch::storeWord(Addr addr, Word value)
{
    panic_if(addr % kWordBytes != 0, "misaligned store at ", addr);
    trackAccess(addr, true);
    if (tracer)
        tracer->record(EventKind::MemAccess, addr,
                       (1ull << 8) | kWordBytes);
    nvm.writeWord(addr, value);
}

uint8_t
ClankOriginalArch::loadByte(Addr addr)
{
    Addr word = addr & ~3u;
    trackAccess(word, false);
    if (tracer)
        tracer->record(EventKind::MemAccess, addr, 1);
    Word w = nvm.readWord(word);
    return static_cast<uint8_t>(w >> (8 * (addr & 3u)));
}

void
ClankOriginalArch::storeByte(Addr addr, uint8_t value)
{
    // A byte store is a word read-modify-write in hardware. It must
    // not mark the word write-first (it only partially overwrites
    // it), but a byte store to a word that was already read-first
    // is still a violation (word-granular tracking cannot tell
    // whether the read touched the same byte). A *fresh* byte store
    // is idempotent by itself and marks the word read-first, so any
    // later full-word store gets caught.
    Addr word = addr & ~3u;
    meter.consume(kBufferTouchNj);
    if (readFirst.count(word)) {
        ++archStats.violations;
        if (tracer)
            tracer->record(EventKind::Violation, word);
        panic_if(!host, "ClankOriginalArch needs a BackupHost");
        host->requestBackup(BackupReason::IdempotencyViolation);
        meter.consume(kBufferTouchNj);
        readFirst.insert(word);
    } else if (!writeFirst.count(word)) {
        if (readFirst.size() >= cfg.rfBufferEntries) {
            panic_if(!host, "ClankOriginalArch needs a BackupHost");
            host->requestBackup(BackupReason::BufferFull);
            meter.consume(kBufferTouchNj);
        }
        readFirst.insert(word);
    }
    if (tracer)
        tracer->record(EventKind::MemAccess, addr, (1ull << 8) | 1);
    Word w = nvm.inspectWord(word); // RMW read, charged as a read
    meter.addCycles(cfg.tech.flashReadCycles);
    meter.consume(cfg.tech.flashReadWordNj);
    unsigned shift = 8 * (addr & 3u);
    w = (w & ~(0xffu << shift)) | (static_cast<Word>(value) << shift);
    nvm.writeWord(word, w);
}

void
ClankOriginalArch::performBackup(const CpuSnapshot &snap,
                                 BackupReason reason)
{
    // No dirty data anywhere: stores already persisted. Only the
    // register file is saved, and the buffers reset.
    persistSnapshot(snap);
    readFirst.clear();
    writeFirst.clear();
    commitBackup(reason);
}

NanoJoules
ClankOriginalArch::backupCostNowNj() const
{
    return snapshotCostNj() * 1.05 + 10.0;
}

void
ClankOriginalArch::onPowerFail()
{
    IntermittentArch::onPowerFail();
    readFirst.clear();
    writeFirst.clear();
}

Word
ClankOriginalArch::inspectWord(Addr addr) const
{
    return nvm.inspectWord(addr & ~3u);
}

void
ClankOriginalArch::fetchBlock(Addr, std::span<Word>)
{
    panic("ClankOriginalArch has no cache fetch path");
}

void
ClankOriginalArch::evictLine(CacheLine &)
{
    panic("ClankOriginalArch has no cache eviction path");
}

} // namespace nvmr
