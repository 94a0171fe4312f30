/**
 * @file
 * The NvMR free list (Section 4): an NVM-resident circular queue of
 * available mappings in the compiler-reserved region. Renames pop
 * from the head during execution; backups push retired mappings to
 * the tail and persist the read/write pointers. On a power loss the
 * pointers revert to their last persisted values, which hands the
 * un-persisted pops out again.
 */

#ifndef NVMR_CORE_FREELIST_HH
#define NVMR_CORE_FREELIST_HH

#include <cstdint>
#include <vector>

#include "common/bytes.hh"
#include "common/types.hh"
#include "power/meter.hh"

namespace nvmr
{

class FaultInjector;

/** NVM circular queue of available block mappings. */
class FreeList
{
  public:
    /**
     * @param capacity Maximum number of mappings the list can hold.
     * @param params Technology constants (NVM slot access costs).
     * @param meter Where overhead energy is charged.
     */
    FreeList(uint32_t capacity, const TechParams &params,
             EnergyMeter &meter);

    /**
     * Fill the list with the reserved region's block addresses
     * (unaccounted; done by the "compiler" before execution) and
     * persist the initial pointers.
     */
    void initFill(Addr reserved_base, uint32_t block_bytes,
                  uint32_t count);

    bool empty() const { return count == 0; }
    bool full() const { return count == capacity; }
    uint32_t size() const { return count; }

    /** Pop the mapping at the head (1 NVM slot read, charged). */
    Addr pop();

    /** Push a mapping at the tail (1 NVM slot write, charged). */
    void push(Addr mapping);

    /** Persist head/tail pointers (2 NVM word writes, charged). */
    void persistPointers();

    /** Power loss: revert the pointers to the last persisted copy. */
    void restorePointers();

    /** Cost of persisting the pointers (for backup estimates). */
    NanoJoules persistPointersCostNj() const;

    /**
     * Snapshot of the queue's live contents, head first (unaccounted;
     * the src/check conservation checker audits it against the map
     * table). Buffered transaction pushes are not yet live and are
     * excluded; checkers run at commit points where none are pending.
     */
    std::vector<Addr>
    liveSlots() const
    {
        std::vector<Addr> out;
        out.reserve(count);
        for (uint32_t i = 0; i < count; ++i)
            out.push_back(slots[(readPtr + i) % capacity]);
        return out;
    }

    /** Crash/bit-error injection for slot and pointer persists. */
    void attachFaults(FaultInjector *injector) { faults = injector; }

    // ------------------------------------------------------------------
    // Backup transaction (fault injection only)
    // ------------------------------------------------------------------

    /**
     * Open a backup transaction. Until commit, pushes are charged
     * normally but buffered outside the queue (so a rolled-back
     * backup cannot have overwritten live slots, and a pop within
     * the same backup can never hand a just-retired mapping out
     * again), and persistPointers() stages its values instead of
     * making them durable.
     */
    void beginTxn();

    /** Apply buffered pushes and make staged pointers durable. */
    void commitTxn();

    /** Torn backup: drop buffered pushes and staged pointers. The
     *  caller then runs restorePointers() as usual. */
    void rollbackTxn();

    /** Serialize the queue + pointers for a machine snapshot (safe
     *  points only, outside backup transactions). */
    void
    saveState(ByteWriter &w) const
    {
        panic_if(txnActive, "snapshot during a free-list transaction");
        w.vec(slots);
        w.u32(readPtr);
        w.u32(writePtr);
        w.u32(count);
        w.u32(persistedReadPtr);
        w.u32(persistedWritePtr);
        w.u32(persistedCount);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(ByteReader &r)
    {
        slots = r.vec<Addr>();
        panic_if(r.ok() && slots.size() != capacity,
                 "snapshot free list has wrong geometry");
        readPtr = r.u32();
        writePtr = r.u32();
        count = r.u32();
        persistedReadPtr = r.u32();
        persistedWritePtr = r.u32();
        persistedCount = r.u32();
        txnActive = false;
        pendingPushes.clear();
        stagedValid = false;
    }

  private:
    uint32_t capacity;
    const TechParams &tech;
    EnergyMeter &meter;
    FaultInjector *faults = nullptr;

    std::vector<Addr> slots;
    uint32_t readPtr = 0;
    uint32_t writePtr = 0;
    uint32_t count = 0;

    uint32_t persistedReadPtr = 0;
    uint32_t persistedWritePtr = 0;
    uint32_t persistedCount = 0;

    bool txnActive = false;
    std::vector<Addr> pendingPushes;
    bool stagedValid = false;
    uint32_t stagedReadPtr = 0;
    uint32_t stagedWritePtr = 0;
    uint32_t stagedCount = 0;
};

} // namespace nvmr

#endif // NVMR_CORE_FREELIST_HH
