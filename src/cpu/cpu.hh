/**
 * @file
 * In-order 3-stage (fetch/decode/execute) CPU model executing the iisa
 * instruction set, in the style of an ARM Cortex M0+ at 8 MHz.
 *
 * The model is an interpreter with a simple timing overlay: every
 * instruction costs one base cycle, taken control flow adds a 2-cycle
 * pipeline refill, and memory instructions additionally incur whatever
 * latency the attached DataPort charges. The register file (and PC) is
 * volatile state that intermittent architectures snapshot on backup and
 * lose on power failure.
 */

#ifndef NVMR_CPU_CPU_HH
#define NVMR_CPU_CPU_HH

#include <array>
#include <cstdint>

#include "common/bytes.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "mem/port.hh"
#include "obs/trace.hh"

namespace nvmr
{

/** Volatile processor state captured by a backup. */
struct CpuSnapshot
{
    std::array<Word, kNumRegs> regs{};
    uint32_t pc = 0;

    /** Words of NVM a backup needs to persist this snapshot. */
    static constexpr unsigned persistWords = kNumRegs + 1;
};

/** Result of executing one instruction. */
struct StepResult
{
    /** Pipeline cycles consumed (excludes memory-system latency). */
    Cycles cycles = 0;

    /** The program executed a HALT. */
    bool halted = false;
};

/**
 * The simulated core. One instance is created per simulation run and
 * wired to the intermittent architecture's DataPort.
 */
class Cpu
{
  public:
    Cpu(const Program &prog, DataPort &data_port);

    /** Cold-boot reset: clear registers, jump to the entry point. */
    void reset();

    /** Execute a single instruction. Must not be called after HALT. */
    StepResult step();

    /** True once HALT has executed. */
    bool halted() const { return _halted; }

    /** Capture volatile state for a backup. */
    CpuSnapshot snapshot() const;

    /** Restore volatile state (after a power loss). */
    void restore(const CpuSnapshot &snap);

    /** Current PC (instruction index), for diagnostics. */
    uint32_t pc() const { return _pc; }

    /** Read a register, for tests. */
    Word reg(unsigned idx) const { return regs[idx]; }

    /** Write a register, for tests. */
    void setReg(unsigned idx, Word value);

    /** Retired instruction count since reset(). */
    uint64_t instret() const { return _instret; }

    /** Attach an event sink (halt / reset events; null = off). */
    void attachTrace(TraceSink *sink_) { tracer = sink_; }

    /** Serialize the full volatile state for a machine snapshot
     *  (unlike snapshot(), includes halted and instret). */
    void
    saveState(ByteWriter &w) const
    {
        w.pod(regs);
        w.u32(_pc);
        w.boolean(_halted);
        w.u64(_instret);
    }

    /** Restore state captured by saveState(). */
    void
    restoreState(ByteReader &r)
    {
        regs = r.pod<std::array<Word, kNumRegs>>();
        _pc = r.u32();
        _halted = r.boolean();
        _instret = r.u64();
    }

  private:
    /** The threaded-code engine (sim/engine.cc) executes decoded ops
     *  directly against this register file / PC / instret state so
     *  snapshot(), restore() and instret() behave identically under
     *  both engines. */
    friend class ThreadedEngine;

    const Program &program;
    DataPort &port;
    TraceSink *tracer = nullptr;

    std::array<Word, kNumRegs> regs{};
    uint32_t _pc = 0;
    bool _halted = false;
    uint64_t _instret = 0;

    void writeReg(unsigned idx, Word value);
};

} // namespace nvmr

#endif // NVMR_CPU_CPU_HH
