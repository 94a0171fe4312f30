#include "mem/bloom.hh"

#include <bit>

#include "common/log.hh"

namespace nvmr
{

BloomFilter::BloomFilter(unsigned num_bits, unsigned hashes,
                         const TechParams &params, EnergyMeter &mtr)
    : words((num_bits + 63) / 64, 0), nBits(num_bits),
      numHashes(hashes), tech(params), meter(mtr)
{
    fatal_if(num_bits == 0, "bloom filter needs at least one bit");
    fatal_if(hashes == 0, "bloom filter needs at least one hash");
}

unsigned
BloomFilter::hashOf(Addr block_addr, unsigned which) const
{
    // splitmix64-style finalizer, salted per hash function.
    uint64_t x = (static_cast<uint64_t>(block_addr) << 1) | 1;
    x += 0x9e3779b97f4a7c15ull * (which + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<unsigned>(x % nBits);
}

void
BloomFilter::insert(Addr block_addr)
{
    meter.consume(tech.bloomNj);
    for (unsigned h = 0; h < numHashes; ++h) {
        unsigned bit = hashOf(block_addr, h);
        words[bit / 64] |= 1ull << (bit % 64);
    }
}

bool
BloomFilter::maybeContains(Addr block_addr)
{
    meter.consume(tech.bloomNj);
    for (unsigned h = 0; h < numHashes; ++h) {
        unsigned bit = hashOf(block_addr, h);
        if (!(words[bit / 64] & (1ull << (bit % 64))))
            return false;
    }
    return true;
}

void
BloomFilter::reset()
{
    words.assign(words.size(), 0);
}

double
BloomFilter::occupancy() const
{
    size_t set = 0;
    for (uint64_t w : words)
        set += static_cast<size_t>(std::popcount(w));
    return static_cast<double>(set) / static_cast<double>(nBits);
}

} // namespace nvmr
