/**
 * @file
 * A loaded program image: decoded text section plus the initial
 * contents of the NVM data segment.
 */

#ifndef NVMR_ISA_PROGRAM_HH
#define NVMR_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "isa/isa.hh"

namespace nvmr
{

struct DecodedProgram; // cpu/decoded.hh
struct GoldenResult;   // sim/simulator.hh

/**
 * An assembled program. The data image is loaded into the application
 * region of NVM (starting at address 0) before execution; the text
 * section lives in instruction flash and is addressed by instruction
 * index.
 */
class Program
{
  public:
    Program() = default;

    /** Copies and moves carry the sections but never the cache slots
     *  (decoded-op image, golden run): a copy may be mutated
     *  afterwards (the ddmin shrinker), so it re-decodes and re-runs
     *  its golden execution on first use. */
    Program(const Program &other);
    Program &operator=(const Program &other);
    Program(Program &&other) noexcept;
    Program &operator=(Program &&other) noexcept;

    /** Assembled name, for diagnostics and result tables. */
    std::string name;

    /** Decoded instructions; PC is an index into this vector. */
    std::vector<Instruction> text;

    /** Initial bytes of the data segment (NVM address 0 upward). */
    std::vector<uint8_t> data;

    /** Label name -> value (byte address or instruction index). */
    std::map<std::string, uint32_t> labels;

    /** Entry point (instruction index of label `main`, or 0). */
    uint32_t entry = 0;

    /** Byte size of the data segment. */
    uint32_t dataSize() const { return static_cast<uint32_t>(data.size()); }

    /** Look up a label or die; used by tests and golden models. */
    uint32_t labelOf(const std::string &label_name) const;

    /** Read an initial data word (little-endian); for tests. */
    Word initialWord(Addr addr) const;

    /** Drop the cached decoded-op image and golden run. Must be
     *  called after any in-place mutation of `text` or `data` once
     *  the program has executed (cpu/decoded.hh, sim/simulator.hh). */
    void invalidateDecoded() const
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        _decoded.reset();
        _golden.reset();
    }

  private:
    /** Lazily-installed caches, shared by every simulation of this
     *  Program (populated by nvmr::decodedProgram and
     *  nvmr::goldenRun). */
    friend std::shared_ptr<const DecodedProgram>
    decodedProgram(const Program &prog);
    friend std::shared_ptr<const GoldenResult>
    goldenRun(const Program &prog);

    /** Return `slot`, filling it with make() on first use. make() runs
     *  unlocked; when threads race, the first to install wins and
     *  every caller returns its value. */
    template <typename T, typename Make>
    std::shared_ptr<const T>
    fillOnce(std::shared_ptr<const T> &slot, Make make) const
    {
        {
            std::lock_guard<std::mutex> lock(cacheMutex);
            if (slot)
                return slot;
        }
        auto fresh = std::make_shared<const T>(make());
        std::lock_guard<std::mutex> lock(cacheMutex);
        if (!slot)
            slot = std::move(fresh);
        return slot;
    }

    /** Guards both slots. A lock rather than
     *  std::atomic<std::shared_ptr>: libstdc++'s atomic shared_ptr
     *  releases its internal lock in load() with a relaxed store, so
     *  ThreadSanitizer reports a load racing the first install. Taken
     *  once per run, never per instruction. */
    mutable std::mutex cacheMutex;
    mutable std::shared_ptr<const DecodedProgram> _decoded;
    mutable std::shared_ptr<const GoldenResult> _golden;
};

} // namespace nvmr

#endif // NVMR_ISA_PROGRAM_HH
