/**
 * @file
 * The NvMR architecture (Section 4): eliminates idempotency-violation
 * backups by renaming the NVM addresses of read-dominated dirty cache
 * blocks at eviction time. Renames target fresh locations popped from
 * the free list and are recorded in the volatile map-table cache; the
 * NVM map table is only updated at backups, so it always describes
 * the recovery image. Backups are forced only by dirty map-table-cache
 * evictions or by structural exhaustion (map table full / free list
 * empty), which reclamation (Section 4.8) mitigates.
 */

#ifndef NVMR_CORE_NVMR_ARCH_HH
#define NVMR_CORE_NVMR_ARCH_HH

#include <unordered_map>

#include "arch/arch.hh"
#include "core/freelist.hh"
#include "core/maptable.hh"
#include "core/mtcache.hh"

namespace nvmr
{

/** The renaming intermittent architecture. */
class NvmrArch : public DominanceArch
{
  public:
    NvmrArch(const SystemConfig &cfg, Nvm &nvm, EnergyMeter &meter);

    const char *name() const override { return "nvmr"; }

    void initialize(const Program &prog) override;

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;
    void postBackup(BackupReason reason) override;

    void onPowerFail() override;
    CpuSnapshot performRestore() override;
    NanoJoules restoreCostNowNj() const override;

    /** Forward the injector to the NVM-resident structures. */
    void attachFaults(FaultInjector *injector) override;

    /** Forward the event sink to the map-table cache. */
    void attachTrace(TraceSink *sink_) override;

    /** Base address of the compiler-reserved renaming region. */
    Addr reservedBase() const { return reserved; }

    const MapTable &mapTableRef() const { return mapTable; }
    const MapTableCache &mtCacheRef() const { return mtc; }
    const FreeList &freeListRef() const { return freeList; }

    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  protected:
    void fetchBlock(Addr block_addr, std::span<Word> out) override;
    void violatingWriteback(CacheLine &line) override;
    void normalWriteback(CacheLine &line) override;
    Addr inspectMapping(Addr addr) const override;

    /** Backup-transaction hooks: shadow the map table and free list
     *  so a torn backup rolls back to the previous recovery image. */
    void shadowCapture() override;
    void shadowRollback() override;
    void onBackupCommitted() override;

  private:
    MapTable mapTable;
    MapTableCache mtc;
    FreeList freeList;
    Addr reserved = 0;

    /** How many times each tag has been renamed (observability
     *  bookkeeping only; charges nothing). */
    std::unordered_map<Addr, uint64_t> renameDepths;

    Histogram renameChainDepth{
        "rename_chain_depth",
        "per-tag cumulative rename count at each rename"};
    Histogram mtcResidency{
        "mtcache_residency",
        "LRU ticks a map-table-cache entry survived before eviction"};

    /** Count / trace / histogram one rename of `tag` to `fresh`. */
    void noteRename(Addr tag, Addr fresh);

    /** Mutation-hook state for InjectedBug::RenameAlias: the first
     *  fresh location popped, which the bug aliases everything onto. */
    bool bugFreshValid = false;
    Addr bugFirstFresh = 0;

    /** Apply the RenameAlias mutation hook to a popped location. */
    Addr bugAdjustFresh(Addr fresh);

    /**
     * NVM-resident reclamation redo record (mirrored here; survives
     * power failures). Reclaiming an entry performs a durable map-table
     * erase whose matching free-list push only becomes durable at the
     * next pointer persist; a crash in between would orphan the
     * reclaimed location forever. The record closes that window: it is
     * persisted (invalidate, write pair, revalidate -- never torn)
     * before an entry is touched and cleared after the entry's pushes
     * are pointer-persisted, and restore redoes any pending entry. All
     * steps are idempotent, so nested crashes during the redo are safe.
     */
    bool reclaimRecValid = false;
    Addr reclaimRecTag = 0;
    Addr reclaimRecMapping = 0;

    /** Charge (and expose to fault injection) `words` one-word record
     *  persists. */
    void chargeRecordPersist(unsigned words);
    void persistReclaimRecord(Addr tag, Addr mapping);
    void clearReclaimRecord();

    /** Copy `mapping` home to `tag`, erase the map-table entry, push
     *  the freed slot and persist the free-list pointers. Idempotent;
     *  `redo` tolerates already-applied steps. */
    void applyReclaimEntry(Addr tag, Addr mapping, bool redo);

    /** Restore-time repair: finish a reclaim cut short by a crash. */
    void redoPendingReclaim();

    /**
     * Find the map-table-cache entry for a tag, filling it from the
     * NVM map table on a miss (if the tag is mapped there). May
     * trigger a backup if the allocation evicts a dirty entry; in
     * that case any dirty cache line the caller held becomes clean.
     * Returns nullptr if the tag has no mapping anywhere.
     */
    MtcEntry *findOrFillEntry(Addr tag);

    /**
     * Make room for a new map-table-cache entry, backing up first if
     * the victim is dirty. Returns true if a backup ran (mappings
     * and line dirtiness may have changed; the caller must
     * re-resolve).
     */
    bool ensureEntrySpace(Addr tag);

    /** Install a map-table-cache entry into a guaranteed-clean
     *  victim slot (call ensureEntrySpace first). */
    MtcEntry &allocateEntry(Addr tag, Addr old_map, Addr new_map,
                            bool dirty, bool in_map_table);

    /** True if a brand-new tag can still be renamed (map table has a
     *  slot left for the next backup's flush). */
    bool mapTableHasRoomForNewTag() const;

    /** The charged, execution-time mapping of a block address. */
    Addr resolveMapping(Addr tag);
};

} // namespace nvmr

#endif // NVMR_CORE_NVMR_ARCH_HH
