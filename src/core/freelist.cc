#include "core/freelist.hh"

#include "common/log.hh"
#include "fault/fault.hh"

namespace nvmr
{

FreeList::FreeList(uint32_t cap, const TechParams &params,
                   EnergyMeter &mtr)
    : capacity(cap), tech(params), meter(mtr)
{
    fatal_if(cap == 0, "free list needs at least one slot");
    slots.assign(cap, kNoAddr);
}

void
FreeList::initFill(Addr reserved_base, uint32_t block_bytes,
                   uint32_t n)
{
    panic_if(n > capacity, "free list overfilled");
    readPtr = 0;
    writePtr = n % capacity;
    count = n;
    for (uint32_t i = 0; i < n; ++i)
        slots[i] = reserved_base + i * block_bytes;
    persistedReadPtr = readPtr;
    persistedWritePtr = writePtr;
    persistedCount = count;
}

Addr
FreeList::pop()
{
    panic_if(count == 0, "pop from empty free list");
    meter.addCycles(tech.flashReadCycles);
    meter.consumeOverhead(tech.flashReadWordNj);
    Addr mapping = slots[readPtr];
    readPtr = (readPtr + 1) % capacity;
    --count;
    return mapping;
}

void
FreeList::push(Addr mapping)
{
    if (faults && faults->enabled())
        faults->persistPoint();
    if (txnActive) {
        // Buffered until commit: the slot write is charged now but
        // the queue's live window is untouched, so a torn backup
        // cannot have clobbered entries the rollback resurrects
        // (pop-then-push wrap-around) and the retired mapping is
        // not poppable within the same backup.
        panic_if(count + pendingPushes.size() >= capacity,
                 "push to full free list");
        meter.addCycles(tech.flashWriteCycles);
        meter.consumeOverhead(tech.flashWriteWordNj);
        pendingPushes.push_back(mapping);
        return;
    }
    panic_if(count == capacity, "push to full free list");
    meter.addCycles(tech.flashWriteCycles);
    meter.consumeOverhead(tech.flashWriteWordNj);
    slots[writePtr] = mapping;
    writePtr = (writePtr + 1) % capacity;
    ++count;
}

void
FreeList::persistPointers()
{
    if (faults && faults->enabled()) {
        // Two interruptible word writes; the pointer pair only
        // becomes the durable record once both land.
        faults->persistPoint();
        meter.addCycles(tech.flashWriteCycles);
        meter.consumeOverhead(tech.flashWriteWordNj);
        faults->persistPoint();
        meter.addCycles(tech.flashWriteCycles);
        meter.consumeOverhead(tech.flashWriteWordNj);
    } else {
        meter.addCycles(2 * tech.flashWriteCycles);
        meter.consumeOverhead(2 * tech.flashWriteWordNj);
    }
    if (txnActive) {
        // Stage the post-commit pointer state (buffered pushes
        // included); commitTxn makes it durable with the rest of
        // the backup.
        uint32_t pending = static_cast<uint32_t>(pendingPushes.size());
        stagedReadPtr = readPtr;
        stagedWritePtr = (writePtr + pending) % capacity;
        stagedCount = count + pending;
        stagedValid = true;
        return;
    }
    persistedReadPtr = readPtr;
    persistedWritePtr = writePtr;
    persistedCount = count;
}

void
FreeList::beginTxn()
{
    txnActive = true;
    pendingPushes.clear();
    stagedValid = false;
}

void
FreeList::commitTxn()
{
    if (!txnActive)
        return;
    for (Addr mapping : pendingPushes) {
        panic_if(count == capacity, "push to full free list");
        slots[writePtr] = mapping;
        writePtr = (writePtr + 1) % capacity;
        ++count;
    }
    pendingPushes.clear();
    if (stagedValid) {
        persistedReadPtr = stagedReadPtr;
        persistedWritePtr = stagedWritePtr;
        persistedCount = stagedCount;
        stagedValid = false;
    }
    txnActive = false;
}

void
FreeList::rollbackTxn()
{
    pendingPushes.clear();
    stagedValid = false;
    txnActive = false;
}

void
FreeList::restorePointers()
{
    readPtr = persistedReadPtr;
    writePtr = persistedWritePtr;
    count = persistedCount;
}

NanoJoules
FreeList::persistPointersCostNj() const
{
    return 2 * (tech.flashWriteWordNj +
                static_cast<double>(tech.flashWriteCycles) *
                    tech.cpuCycleNj);
}

} // namespace nvmr
