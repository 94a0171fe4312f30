/**
 * @file
 * The golden oracle of the differential checker (the correctness
 * backstop of the whole simulator): a power-failure-free, cache-free
 * ISA interpreter over flat memory. Its final memory and register
 * state is the reference every intermittent run is diffed against --
 * through the map table for NvMR -- after the run finishes. Any
 * word-level difference is a correctness bug in the architecture
 * under test (or in the oracle, which is small enough to audit).
 */

#ifndef NVMR_CHECK_ORACLE_HH
#define NVMR_CHECK_ORACLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"
#include "sim/simulator.hh"

namespace nvmr
{

class IntermittentArch;
class Cpu;

/** Reference final state of one program: the golden run's result
 *  (sim/simulator.hh). */
using OracleResult = GoldenResult;

/**
 * Execute the program to completion on the reference interpreter.
 * Deterministic, no caches, no power failures; `max_instructions`
 * bounds runaway programs (halted stays false when it trips). The
 * same interpreter as runContinuous(), under the checker's name.
 */
inline OracleResult
runOracle(const Program &prog, uint64_t max_instructions = 200000000ull)
{
    return runContinuous(prog, max_instructions);
}

/** Oracle-vs-architecture final-state diff. */
struct StateDiff
{
    /** First `max_report` diverging words (inspected through the
     *  architecture's mapping, so NvMR renames are followed). */
    std::vector<WordDiff> words;
    uint64_t totalWordDiffs = 0;

    /** Indices of diverging registers (only when the run completed
     *  and a CPU was supplied). */
    std::vector<unsigned> regMismatches;
    bool pcMismatch = false;
    bool regsChecked = false;

    bool clean() const
    {
        return totalWordDiffs == 0 && regMismatches.empty() &&
               !pcMismatch;
    }
};

/**
 * Diff the architecture's post-run NVM image (through its mapping)
 * and, optionally, the CPU's register file against the oracle state.
 * Compares every word of the program's data segment
 * (diffAgainstGolden, sim/simulator.hh).
 */
StateDiff diffFinalState(const IntermittentArch &arch,
                         const Program &prog,
                         const OracleResult &oracle,
                         const Cpu *cpu = nullptr,
                         size_t max_report = 8);

} // namespace nvmr

#endif // NVMR_CHECK_ORACLE_HH
