/**
 * @file
 * Simplified HOOP [6] (Sections 2.1 and 6.2): a log-based,
 * transaction-style intermittent system. Dirty cache evictions push
 * word updates into a volatile OOP buffer; backups pack the buffer
 * into slices and append them to the NVM OOP region (a redo log).
 * Restore garbage-collects the log onto the home addresses. The
 * mapping table is infinitely large and free, per Table 4.
 */

#ifndef NVMR_ARCH_HOOP_HH
#define NVMR_ARCH_HOOP_HH

#include <map>
#include <unordered_map>

#include "arch/arch.hh"

namespace nvmr
{

/** Log-structured out-of-place-update architecture. */
class HoopArch : public IntermittentArch
{
  public:
    HoopArch(const SystemConfig &cfg, Nvm &nvm, EnergyMeter &meter);

    const char *name() const override { return "hoop"; }

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;

    void onPowerFail() override;
    CpuSnapshot performRestore() override;
    NanoJoules restoreCostNowNj() const override;

    Word inspectWord(Addr addr) const override;

    /** Committed redo-log entries currently in the OOP region. */
    uint32_t oopRegionFill() const { return regionFill; }

    /** Word updates waiting in the volatile OOP buffer. */
    uint32_t oopBufferFill() const
    {
        return static_cast<uint32_t>(oopBuffer.size());
    }

    /** Garbage collections performed (restore + region-full). */
    uint64_t gcCount() const { return gcs; }

    void saveState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  protected:
    void fetchBlock(Addr block_addr, std::span<Word> out) override;
    void evictLine(CacheLine &line) override;

    /** Backup-transaction hooks: the committed log *is* HOOP's
     *  recovery metadata, so a torn backup must roll it back. */
    void shadowCapture() override;
    void shadowRollback() override;
    void onBackupCommitted() override;

  private:
    /** Volatile OOP buffer: an append-only log of un-committed word
     *  updates (hardware appends; only reads search it, newest
     *  first). Repeated updates to one word occupy multiple slots --
     *  the store locality the paper says HOOP's packing depends
     *  on. */
    std::vector<std::pair<Addr, Word>> oopBuffer;

    /** Newest buffered value per word address -- an index over
     *  oopBuffer so block fetches resolve each word in O(1) instead
     *  of scanning the whole buffer (fetchBlock dominated whole-run
     *  profiles without it). Mutated only next to oopBuffer. */
    std::unordered_map<Addr, Word> bufNewest;

    /** Committed redo log contents: word address -> latest committed
     *  value. Stand-in for the infinite, zero-cost mapping table over
     *  the OOP region. */
    std::unordered_map<Addr, Word> committedLog;

    /**
     * Incremental census of the buffer's packed shape: the number of
     * same-block runs it holds and the block of the newest entry.
     * Kept in step with oopBuffer so backupCostNowNj — polled every
     * instruction by JIT policies — never walks the buffer.
     */
    uint64_t bufGroups = 0;
    Addr bufLastBlock = kNoAddr;

    /** Entries (word updates) occupying the OOP region. */
    uint32_t regionFill = 0;

    uint64_t gcs = 0;

    /** Pre-backup shadow of the committed log (fault injection). */
    std::unordered_map<Addr, Word> shadowLog;
    uint32_t shadowFill = 0;
    bool shadowValid = false;

    /** Apply the committed log onto the home addresses (charged). */
    void garbageCollect();

    /** Flush the OOP buffer into the OOP region as packed slices. */
    void flushBufferToRegion();

    /** NVM words a buffer flush would write right now. */
    uint64_t packedFlushWords() const;
};

} // namespace nvmr

#endif // NVMR_ARCH_HOOP_HH
