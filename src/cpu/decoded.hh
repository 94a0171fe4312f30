/**
 * @file
 * The decoded-op cache behind the threaded-code execution engine
 * (docs/performance.md, "Execution engines").
 *
 * predecode() lowers a Program's text section once into a dense,
 * cache-friendly array of DecodedOp records: the opcode is mapped to
 * an execution-engine handler kind, shift immediates are pre-masked
 * to their 5 live bits, writes to the hardwired zero register are
 * folded into cycle-accurate discard ops, and base pipeline cycles are
 * precomputed per op.
 *
 * Decoded images are immutable and shared: each Program owns a
 * lock-guarded, install-once slot (Program::_decoded), so concurrent
 * simulations of the same image -- parallel campaign cells, the warm
 * nvmr_serve ProgramCache -- decode once and share the result.
 */

#ifndef NVMR_CPU_DECODED_HH
#define NVMR_CPU_DECODED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hh"

namespace nvmr
{

/**
 * Execution-engine opcode. The ALU kinds come first so "is an ALU op"
 * is one compare; `Discard` stands for any ALU op whose destination
 * is the hardwired zero register (the result is dropped, only the
 * cycle cost remains).
 */
enum class XOp : uint8_t
{
    // ALU: register-only, no memory, no control flow.
    Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu,
    Addi, Andi, Ori, Xori, Slli, Srli, Srai, Slti, Muli, Lui,
    Discard, // rd == zero: cycles only

    // Memory, control flow, halt, task boundaries.
    Ld, Ldb, St, Stb,
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Jmp, Jal, Jr, Halt, Task,

    NUM_XOPS
};

/** First non-ALU kind; everything below it is an ALU op. */
constexpr XOp kFirstNonAlu = XOp::Ld;

/** Largest base cycle count any single op can carry (DIV/REM). */
constexpr unsigned kMaxOpCycles = 8;

/**
 * One predecoded instruction (12 bytes, hot-loop friendly).
 * `imm` holds the pre-masked shift amount for SLLI/SRLI/SRAI and the
 * raw immediate otherwise; branch/jump targets are the instruction
 * index exactly as in the Instruction encoding.
 */
struct DecodedOp
{
    XOp kind = XOp::Halt;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;

    /** Base pipeline cycles (taken-branch refill excluded). */
    uint8_t cycles = 1;

    /** Extra cycles when a branch/jump redirects the PC. */
    uint8_t takenExtra = 0;
};

static_assert(sizeof(DecodedOp) <= 12, "keep decoded ops dense");

/** An immutable predecoded program image. */
struct DecodedProgram
{
    std::vector<DecodedOp> ops;

    uint32_t size() const { return static_cast<uint32_t>(ops.size()); }
};

/** Bytes of the image predecode() builds for `prog`, known before it
 *  exists (serve backpressure accounting). */
inline uint64_t
decodedImageBytes(const Program &prog)
{
    return prog.text.size() * sizeof(DecodedOp);
}

/** Lower a program's text section (pure function of prog.text).
 *  Panics on malformed register fields, which the assembler and
 *  randprog never produce. */
DecodedProgram predecode(const Program &prog);

/**
 * Fetch the shared decoded image for `prog`, predecoding on first
 * use. Thread-safe and lock-free on the hit path; the image stays
 * valid for the lifetime of the returned shared_ptr even if the
 * Program is mutated or destroyed. Callers that mutate prog.text in
 * place must call Program::invalidateDecoded().
 */
std::shared_ptr<const DecodedProgram> decodedProgram(const Program &prog);

} // namespace nvmr

#endif // NVMR_CPU_DECODED_HH
