/**
 * @file
 * The differential fuzzer's case grid, per-case evaluator and failure
 * report. The fuzz campaign (serve/runner.hh) runs this grid for both
 * `nvmr_fuzz` and a fuzz job served by nvmr_serve, so the two check
 * the identical grid, write byte-identical journal payloads and
 * print the same failure text; `nvmr_fuzz --one` replays one case.
 *
 * One fuzz iteration is one random program (sim/randprog.hh) pushed
 * through every entry of a fixed architecture x policy x capacitor
 * grid; each run's final NVM state is compared against the
 * continuously-powered execution (directly, or via the full oracle +
 * invariant harness in src/check when oracle mode is on).
 */

#ifndef NVMR_CHECK_FUZZCASES_HH
#define NVMR_CHECK_FUZZCASES_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "check/runner.hh"
#include "fault/fault.hh"
#include "sim/simulator.hh"

namespace nvmr
{

/** One grid entry: where a fuzzed program runs. */
struct FuzzCase
{
    ArchKind arch;
    PolicyKind policy;
    double farads;
    bool byteLbf = false;
};

/** The fixed case grid; `nvmr_fuzz --one` indexes into it 1-based. */
const FuzzCase *fuzzCases();
size_t fuzzCaseCount();

/**
 * Derive a random-but-reproducible fault load for one (seed, case)
 * pair: a crash armed at a random persist boundary, sometimes a
 * second one at a raw cycle, and sometimes a transient bit-error
 * rate. Only single-bit transients are enabled so SECDED always
 * corrects them: any divergence is still a simulator bug, never the
 * fault manifesting.
 */
FaultConfig randomFuzzFaults(uint64_t seed, uint64_t case_idx);

/** Map one fuzz case onto the src/check harness description. */
CheckCase makeFuzzCheckCase(const std::string &text, uint64_t seed,
                            const FuzzCase &c,
                            const FaultConfig *faults);

/** What one (seed, case) evaluation produced. Workers only compute;
 *  all printing, manifest writes and repro saving stay on the main
 *  thread so output order and side effects are deterministic. */
struct FuzzOutcome
{
    bool skipped = false;  ///< case not applicable (ideal + non-JIT)
    bool ok = true;
    RunResult run;          ///< failure detail (both modes)
    std::string checkText;  ///< oracle mode: describe() + detail()
    CheckCase cc;           ///< oracle mode: repro payload
    FaultConfig faults;
    bool haveFaults = false;
};

/**
 * Evaluate one (program, case) pair. `budget_cycles` (when nonzero)
 * overrides the simulated-cycle budget so the campaign watchdog can
 * retry with doubled budgets; `cancel` (when non-null) is threaded
 * into the run so a service deadline can abandon it mid-simulation;
 * `engine` selects the execution engine (a host-side speed knob --
 * both engines are bit-identical, so outcomes never depend on it).
 */
FuzzOutcome evalFuzzCase(const Program &prog, const std::string &text,
                         uint64_t seed, const FuzzCase &c,
                         const FaultConfig *faults, bool oracle_mode,
                         uint64_t budget_cycles = 0,
                         const std::atomic<bool> *cancel = nullptr,
                         EngineKind engine = EngineKind::Default);

/**
 * The report for a failed (seed, case) pair, as nvmr_fuzz prints it
 * and a served fuzz job logs it: a blank line, the FAILURE line (the
 * oracle's description in oracle mode; otherwise the verdict and, if
 * faults fired, the fault load), then the one-line repro command.
 */
std::string renderFuzzFailure(const FuzzOutcome &out, uint64_t seed,
                              uint64_t case_idx, bool faults_mode,
                              bool oracle_mode);

} // namespace nvmr

#endif // NVMR_CHECK_FUZZCASES_HH
