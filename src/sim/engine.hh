/**
 * @file
 * Execution-engine selection and the threaded-code engine.
 *
 * The simulator has two engines that produce bit-identical results
 * (docs/performance.md, "Execution engines"):
 *
 *  - `interp`: the reference path -- Cpu::step()'s opcode switch,
 *    the energy meter's inline retire charge and one policy call per
 *    instruction.
 *  - `threaded` (the default): executes the shared predecoded op image
 *    (cpu/decoded.hh) in one switch-dispatched loop with the same
 *    inline retire charge and a cached backup-policy threshold
 *    (PolicyFastPath). Stateful policies and
 *    everything outside the per-instruction step (port stalls,
 *    backups, power failures) call back into the same Simulator code
 *    the interpreter uses.
 *
 * Because the outputs are identical, the engine choice is a host-side
 * performance knob: it is NOT part of a run's configuration spec and
 * never appears in deterministic outputs (CSV rows, manifests,
 * campaign cell hashes).
 */

#ifndef NVMR_SIM_ENGINE_HH
#define NVMR_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.hh"
#include "cpu/decoded.hh"

namespace nvmr
{

class Simulator;

/** Which execution engine a run uses. */
enum class EngineKind : uint8_t
{
    Default, ///< defer to the global/env selection
    Interp,  ///< reference interpreter (Cpu::step switch)
    Threaded ///< predecoded threaded-code engine
};

/** Printable name ("default" / "interp" / "threaded"). */
const char *engineKindName(EngineKind kind);

/** Parse an engine name; fatal on anything unknown. */
EngineKind parseEngineKind(const std::string &text);

/** Non-fatal name lookup ("default" / "interp" / "threaded"); false
 *  on an unknown name (used by never-fatal parsers like the serve
 *  job schema). */
bool engineKindFromName(const std::string &name, EngineKind &out);

/** Process-wide engine selection (the tools' --engine flag). */
void setGlobalEngine(EngineKind kind);
EngineKind globalEngine();

/**
 * Resolve the engine a run should use: an explicit per-run request
 * wins, then the process-wide selection (--engine), then the
 * NVMR_ENGINE environment variable, then the threaded engine. The
 * interpreter stays the reference the equivalence nets diff against;
 * select it explicitly (`interp`) to bisect a suspected engine bug.
 */
EngineKind resolveEngine(EngineKind requested);

/**
 * The threaded-code engine. One instance drives the main loop of one
 * Simulator::run(); everything outside the per-instruction loop
 * (initial backup, power-failure handling, backups, hibernation,
 * validation) is shared with the interpreter by calling straight back
 * into the Simulator.
 */
class ThreadedEngine
{
  public:
    explicit ThreadedEngine(Simulator &sim) : s(sim) {}

    /** Run the main loop to completion; returns `completed` (the
     *  program halted and its final backup committed). */
    bool run();

  private:
    Simulator &s;
    std::shared_ptr<const DecodedProgram> image;

    // Policy fast path (classified once per run from the policy).
    double margin = 0;
    double slackNj = 0;
    uint64_t period = 0;
    bool policyHibernates = false;

    /** Cached JIT fire threshold: backupCostNowNj()*margin + slackNj.
     *  Valid only while nothing that can change the backup cost has
     *  happened (no memory traffic, backups, restores, or power
     *  failures since it was computed). */
    double rhs = 0;
    bool costValid = false;

    template <int M> bool mainLoop();
    template <int M> int session(unsigned &cancel_check);
    template <int M> void policyAfterStep();
    void firePolicyBackup();
};

} // namespace nvmr

#endif // NVMR_SIM_ENGINE_HH
