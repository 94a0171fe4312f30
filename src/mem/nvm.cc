#include "mem/nvm.hh"

#include <algorithm>
#include <cstring>

namespace nvmr
{

namespace
{

// One serialized wear entry: (word index, wear) as two u32s.
constexpr size_t kWearEntryBytes = 2 * sizeof(uint32_t);

} // namespace

Nvm::Nvm(uint32_t size_bytes, const TechParams &params, EnergyMeter &mtr)
    : size(size_bytes), tech(params), meter(mtr), mem(size_bytes)
{
    fatal_if(size_bytes == 0 || size_bytes % kWordBytes != 0,
             "NVM size must be a positive multiple of the word size");
    // One null slot per page: no counter exists until a page takes
    // its first accounted write.
    wear.resize(mem.pageCount());
}

Word
Nvm::readFaulty(Addr addr, Word stored)
{
    FaultInjector::ReadOutcome out = faults->applyReadFaults(addr,
                                                             stored);
    // Each bounded retry is a full re-read: charged like the first.
    for (uint32_t i = 0; i < out.retries; ++i) {
        ++reads;
        meter.addCycles(tech.flashReadCycles);
        meter.consume(tech.flashReadWordNj);
    }
    return out.value;
}

void
Nvm::traceWrite(Addr addr, Word value)
{
    // Changed-byte mask (bit i = byte i differs): the WAR-freedom
    // checker only cares about bytes a persist actually altered.
    Word old = peekWord(addr);
    uint64_t mask = 0;
    for (unsigned i = 0; i < kWordBytes; ++i)
        if (((old ^ value) >> (8 * i)) & 0xffu)
            mask |= 1ull << i;
    tracer->record(EventKind::NvmWrite, addr, mask);
}

Word
Nvm::inspectWord(Addr addr) const
{
    Word stored = peekWord(addr);
    if (!faults || !faults->enabled())
        return stored;
    return faults->inspectStored(addr, stored);
}

void
Nvm::pokeByte(Addr addr, uint8_t value)
{
    panic_if(addr >= size, "NVM access out of range: ", addr);
    mem.write8(addr, value);
}

void
Nvm::loadImage(Addr base, const std::vector<uint8_t> &image)
{
    panic_if(base + image.size() > size, "image does not fit in NVM");
    mem.writeBytes(base, image.data(), image.size());
}

uint64_t
Nvm::wearOf(Addr addr) const
{
    panic_if(addr >= size, "NVM access out of range: ", addr);
    uint32_t idx = addr / kWordBytes;
    const std::unique_ptr<WearChunk> &chunk = wear[idx / kWearChunkWords];
    return chunk ? (*chunk)[idx % kWearChunkWords] : 0;
}

uint64_t
Nvm::maxWear() const
{
    return peakWear;
}

uint64_t
Nvm::wearPercentile(double p) const
{
    if (worn == 0)
        return 0;
    std::vector<uint32_t> values;
    values.reserve(worn);
    forEachWornWord([&](Addr, uint64_t wr) {
        values.push_back(static_cast<uint32_t>(wr));
    });
    double clamped = std::min(std::max(p, 0.0), 1.0);
    size_t idx = static_cast<size_t>(
        clamped * static_cast<double>(values.size() - 1) + 0.5);
    std::nth_element(values.begin(), values.begin() + idx,
                     values.end());
    return values[idx];
}

uint64_t
Nvm::wornWords() const
{
    return worn;
}

size_t
Nvm::wearChunks() const
{
    size_t n = 0;
    for (const std::unique_ptr<WearChunk> &chunk : wear)
        n += chunk != nullptr;
    return n;
}

void
Nvm::clearWear()
{
    for (std::unique_ptr<WearChunk> &chunk : wear)
        if (chunk)
            chunk->fill(0);
    worn = 0;
}

void
Nvm::saveState(ByteWriter &w) const
{
    // Wear travels sparsely, in ascending word order: (word index,
    // wear) for worn words only. The NVM is megabytes; the worn set
    // is the write footprint.
    w.u64(worn);
    uint8_t *out = w.extend(worn * kWearEntryBytes);
    forEachWornWord([&](Addr addr, uint64_t wr) {
        const uint32_t entry[2] = {addr / kWordBytes,
                                   static_cast<uint32_t>(wr)};
        std::memcpy(out, entry, kWearEntryBytes);
        out += kWearEntryBytes;
    });
    w.u32(peakWear);
    w.u64(writes);
    w.u64(reads);
}

void
Nvm::restoreState(ByteReader &r)
{
    // Clear this run's wear before applying the snapshot's: the two
    // worn sets need not overlap.
    clearWear();
    uint64_t n = r.count(r.u64(), kWearEntryBytes);
    const uint8_t *in = r.consume(n * kWearEntryBytes);
    for (uint64_t k = 0; k < n; ++k, in += kWearEntryBytes) {
        uint32_t entry[2];
        std::memcpy(entry, in, kWearEntryBytes);
        const uint32_t i = entry[0], wr = entry[1];
        panic_if(i >= size / kWordBytes,
                 "snapshot wear index out of range");
        if (wr == 0)
            continue;
        uint32_t &slot = wearSlot(i);
        if (slot == 0)
            ++worn;
        slot = wr;
    }
    peakWear = r.u32();
    writes = r.u64();
    reads = r.u64();
}

void
Nvm::resetStats()
{
    clearWear();
    peakWear = 0;
    writes = 0;
    reads = 0;
}

} // namespace nvmr
