/**
 * @file
 * The global bloom filter (GBF): a small bit-vector bloom filter that
 * records which evicted cache blocks were read-dominated in the
 * current intermittent code section. False positives conservatively
 * mark blocks read-dominated (extra renames/backups, never
 * incorrectness); false negatives cannot occur for inserted blocks.
 */

#ifndef NVMR_MEM_BLOOM_HH
#define NVMR_MEM_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "power/meter.hh"

namespace nvmr
{

/**
 * Bloom filter over cache-block addresses. Bits are packed into
 * 64-bit words; the paper's configurations (8 bits, Table 2) fit a
 * single word, so callers can precompute an address's hash-lane mask
 * once (at cache fill) and insert/query with plain bitwise ops
 * instead of re-hashing per operation.
 */
class BloomFilter
{
  public:
    /**
     * @param bits Number of one-bit entries (8 in Table 2).
     * @param hashes Number of hash functions (1 in the paper).
     * @param params Technology constants (lookup/update energy).
     * @param meter Where access energy is charged.
     */
    BloomFilter(unsigned bits, unsigned hashes,
                const TechParams &params, EnergyMeter &meter);

    /** Record a (read-dominated) block address. */
    void insert(Addr block_addr);

    /** Membership test; may return false positives. */
    bool maybeContains(Addr block_addr);

    /** Clear all bits (done at every backup). */
    void reset();

    /** Fraction of bits set, for diagnostics. */
    double occupancy() const;

    unsigned numBits() const { return nBits; }

    /** True when the filter fits one 64-bit word and the
     *  precomputed-mask fast path below applies. */
    bool singleWord() const { return nBits <= 64; }

    /**
     * OR of the address's hash-lane bits. Pure hashing, no energy
     * charge; only meaningful when singleWord(). Precompute at cache
     * fill, then use the mask variants for the per-access work.
     */
    uint64_t
    laneMask(Addr block_addr) const
    {
        uint64_t mask = 0;
        for (unsigned h = 0; h < numHashes; ++h)
            mask |= 1ull << hashOf(block_addr, h);
        return mask;
    }

    /** insert() via a precomputed lane mask (same energy charge). */
    void
    insertMask(uint64_t mask)
    {
        meter.consume(tech.bloomNj);
        words[0] |= mask;
    }

    /** maybeContains() via a precomputed lane mask. */
    bool
    maybeContainsMask(uint64_t mask)
    {
        meter.consume(tech.bloomNj);
        return (words[0] & mask) == mask;
    }

    /** Bit-vector contents (machine snapshots). */
    const std::vector<uint64_t> &rawWords() const { return words; }

    void
    setRawWords(const std::vector<uint64_t> &w)
    {
        panic_if(w.size() != words.size(),
                 "snapshot GBF has wrong geometry");
        words = w;
    }

  private:
    std::vector<uint64_t> words;
    unsigned nBits;
    unsigned numHashes;
    const TechParams &tech;
    EnergyMeter &meter;

    unsigned hashOf(Addr block_addr, unsigned which) const;
};

} // namespace nvmr

#endif // NVMR_MEM_BLOOM_HH
