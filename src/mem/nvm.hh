/**
 * @file
 * Non-volatile memory (Flash) model: a flat byte array with per-word
 * access energies charged to the energy meter and per-word wear
 * counters (Section 6.5 reports NVM wear-out reduction).
 *
 * The accounted word accessors are defined inline here: line fills,
 * writebacks, redo-journal replays and map-table persists call them
 * once per word, and inlined they compile to straight-line charges.
 */

#ifndef NVMR_MEM_NVM_HH
#define NVMR_MEM_NVM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "obs/trace.hh"
#include "power/meter.hh"
#include "snapshot/cow.hh"

namespace nvmr
{

/**
 * The on-board Flash. Reads and writes are word-granular and charge
 * energy to the meter; peek/poke bypass accounting for
 * initialization and validation.
 */
class Nvm
{
  public:
    /**
     * @param size_bytes Flash capacity (2 MB in Table 2).
     * @param params Technology constants for access energies.
     * @param meter Where access energy is charged.
     */
    Nvm(uint32_t size_bytes, const TechParams &params, EnergyMeter &meter);

    uint32_t sizeBytes() const { return size; }

    /**
     * Attach the crash/bit-error injector. Every accounted write
     * becomes an interruptible persist boundary and every accounted
     * read runs through the ECC pipeline. Null (the default) keeps
     * the fault-free fast path.
     */
    void attachFaults(FaultInjector *injector) { faults = injector; }

    /**
     * Attach a trace sink: every accounted word write that lands
     * records an NvmWrite event carrying the changed-byte mask. Null
     * (the default) keeps the zero-overhead fast path; the sink is
     * never charged energy, so tracing cannot perturb simulation.
     */
    void attachTrace(TraceSink *sink) { tracer = sink; }

    /** Accounted word read. */
    NVMR_METER_INLINE Word
    readWord(Addr addr)
    {
        ++reads;
        meter.addCycles(tech.flashReadCycles);
        meter.consume(tech.flashReadWordNj);
        Word stored = peekWord(addr);
        if (!faults || !faults->enabled() ||
            !faults->bitErrorsPossible())
            return stored;
        return readFaulty(addr, stored);
    }

    /** Accounted word write; bumps the wear counter. */
    NVMR_METER_INLINE void
    writeWord(Addr addr, Word value)
    {
        uint32_t idx = wordIndex(addr);
        // Persist boundary: an injected crash here means this word
        // (and everything after it in a multi-word persist) never
        // landed.
        if (faults && faults->enabled())
            faults->persistPoint();
        ++writes;
        uint32_t &wr = wearSlot(idx);
        if (wr++ == 0)
            ++worn;
        if (wr > peakWear)
            peakWear = wr;
        meter.addCycles(tech.flashWriteCycles);
        meter.consume(tech.flashWriteWordNj);
        if (tracer)
            traceWrite(addr, value);
        pokeWord(addr, value);
        if (faults && faults->enabled())
            faults->onWordWritten(addr, wr);
    }

    /** Unaccounted read (initialization / validation / tests). */
    Word
    peekWord(Addr addr) const
    {
        wordIndex(addr); // bounds/alignment check
        return mem.readWord(addr);
    }

    /**
     * Unaccounted read through the deterministic fault view: stuck
     * bits and ECC correction applied, no transient sampling, no
     * energy. Validation paths use this so that a correctable stuck
     * bit is not flagged as divergence while an uncorrectable one is.
     */
    Word inspectWord(Addr addr) const;

    /** Unaccounted write (initialization / tests); no wear. */
    void
    pokeWord(Addr addr, Word value)
    {
        wordIndex(addr);
        mem.writeWord(addr, value);
    }

    /** Unaccounted byte accessors for loading program images. */
    uint8_t peekByte(Addr addr) const { return mem.read8(addr); }
    void pokeByte(Addr addr, uint8_t value);

    /** Load a byte image starting at the given address. */
    void loadImage(Addr base, const std::vector<uint8_t> &image);

    /** Number of accounted writes to the word containing addr. */
    uint64_t wearOf(Addr addr) const;

    /** Maximum accounted writes to any single word (wear-out). */
    uint64_t maxWear() const;

    /**
     * Wear at a percentile over the *worn* words (words never
     * written are excluded; flash wear-out is governed by the hot
     * tail, not the untouched expanse). p in [0, 1]; 1.0 == maxWear.
     * Returns 0 when nothing was written.
     */
    uint64_t wearPercentile(double p) const;

    /** Number of distinct words written at least once. */
    uint64_t wornWords() const;

    /** Visit every worn word as fn(word_addr, wear) in ascending
     *  address order; skips words never written (observability:
     *  per-location wear histogram). Walks only the allocated wear
     *  chunks -- the NVM is megabytes, the worn set is the program's
     *  write footprint. Ascending order matters: callers fold the
     *  values into FP sums, which are order-sensitive. */
    template <typename Fn>
    void
    forEachWornWord(Fn fn) const
    {
        for (size_t c = 0; c < wear.size(); ++c) {
            if (!wear[c])
                continue;
            const WearChunk &chunk = *wear[c];
            for (uint32_t k = 0; k < kWearChunkWords; ++k)
                if (chunk[k])
                    fn(static_cast<Addr>(c * kWearChunkWords + k) *
                           kWordBytes,
                       static_cast<uint64_t>(chunk[k]));
        }
    }

    /** Wear chunks allocated so far (one per NVM page that took an
     *  accounted write; tests pin the O(footprint) cost). */
    size_t wearChunks() const;

    /** Total accounted word writes. */
    uint64_t totalWrites() const { return writes; }

    /** Total accounted word reads. */
    uint64_t totalReads() const { return reads; }

    void resetStats();

    // ------------------------------------------------------------------
    // Machine snapshots
    // ------------------------------------------------------------------

    /**
     * Capture the memory contents as a copy-on-write page table:
     * O(pages) pointer copies now, one page clone per subsequently
     * dirtied page. The returned table is immutable and shareable
     * across any number of forks.
     */
    CowStore::PageTable snapshotPages() { return mem.snapshotPages(); }

    /** Replace the contents with a captured page table (fork). */
    void adoptPages(const CowStore::PageTable &table)
    {
        mem.adoptPages(table);
    }

    /** The underlying COW store (diagnostics/tests). */
    const CowStore &store() const { return mem; }

    /** Serialize wear counters (sparse) and access stats; contents
     *  travel separately as the COW page table. */
    void saveState(ByteWriter &w) const;

    /** Restore state captured by saveState(). */
    void restoreState(ByteReader &r);

  private:
    uint32_t size;
    const TechParams &tech;
    EnergyMeter &meter;
    FaultInjector *faults = nullptr;
    TraceSink *tracer = nullptr;
    /** Per-word wear counters of one NVM page. */
    static constexpr uint32_t kWearChunkWords =
        CowStore::kPageBytes / kWordBytes;
    using WearChunk = std::array<uint32_t, kWearChunkWords>;

    CowStore mem;
    // Per-page wear chunks, null until the page's first accounted
    // write: the table is the sparse index of worn words.
    std::vector<std::unique_ptr<WearChunk>> wear;
    uint64_t worn = 0;     // words with wear > 0
    uint32_t peakWear = 0; // running max over `wear`
    uint64_t writes = 0;
    uint64_t reads = 0;

    uint32_t
    wordIndex(Addr addr) const
    {
        panic_if(addr % kWordBytes != 0, "misaligned NVM word access: ",
                 addr);
        panic_if(addr + kWordBytes > size, "NVM access out of range: ",
                 addr);
        return addr / kWordBytes;
    }

    /** readWord's bit-error path: the ECC pipeline and its charged
     *  re-reads (out of line; only runs with bit errors possible). */
    Word readFaulty(Addr addr, Word stored);

    /** Record the NvmWrite event of an accounted write (out of line;
     *  only runs with a trace sink attached). */
    void traceWrite(Addr addr, Word value);

    /** Wear counter of word idx, allocating its chunk on first use. */
    uint32_t &
    wearSlot(uint32_t idx)
    {
        std::unique_ptr<WearChunk> &chunk = wear[idx / kWearChunkWords];
        if (!chunk)
            chunk = std::make_unique<WearChunk>(); // value-init: zeros
        return (*chunk)[idx % kWearChunkWords];
    }

    /** Zero every allocated chunk (they stay allocated). */
    void clearWear();
};

} // namespace nvmr

#endif // NVMR_MEM_NVM_HH
