/**
 * @file
 * The intermittent-execution simulator: couples the CPU, an
 * intermittent architecture, the supercapacitor + harvest trace, and
 * a backup policy; runs the program across power failures with
 * restore and re-execution; accounts energy by category; and
 * validates the final NVM state against a continuously-powered run.
 */

#ifndef NVMR_SIM_SIMULATOR_HH
#define NVMR_SIM_SIMULATOR_HH

#include <array>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "cpu/cpu.hh"
#include "obs/trace.hh"
#include "power/capacitor.hh"
#include "power/energy.hh"
#include "power/meter.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/config.hh"
#include "sim/engine.hh"
#include "snapshot/snapshot.hh"

namespace nvmr
{

/** Everything a run produces. */
struct RunResult
{
    std::string program;
    std::string arch;
    std::string policy;
    std::string trace;

    bool completed = false;  ///< program halted within maxCycles
    bool validated = false;  ///< final NVM state matched golden run
    bool validationChecked = false; ///< golden comparison was run

    uint64_t activeCycles = 0;  ///< cycles spent powered on
    uint64_t totalCycles = 0;   ///< including off/recharge time
    uint64_t instructions = 0;  ///< executed, including re-execution

    std::array<NanoJoules, kNumECats> energy{};
    NanoJoules totalEnergyNj = 0;

    uint64_t backups = 0;
    std::array<uint64_t, kNumBackupReasons> backupsByReason{};
    uint64_t violations = 0;
    uint64_t renames = 0;
    uint64_t reclaims = 0;
    uint64_t restores = 0;
    uint64_t powerFailures = 0;

    uint64_t nvmReads = 0;
    uint64_t nvmWrites = 0;
    uint64_t maxWear = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    uint64_t tornBackups = 0;      ///< backups cut mid-persist
    uint64_t injectedCrashes = 0;  ///< fault-injector power cuts
    uint64_t eccCorrected = 0;     ///< single-bit NVM errors fixed
    uint64_t eccUncorrectable = 0; ///< corrupt NVM reads handed up

    NanoJoules energyOf(ECat cat) const
    {
        return energy[static_cast<size_t>(cat)];
    }
};

/** Per-run knobs that are not part of the system configuration. */
struct RunOptions
{
    uint64_t maxCycles = 400000000ull; ///< safety cap (active+off)
    bool validate = true;              ///< compare against golden run

    /** Capacitor voltage at boot; 0 selects the turn-on voltage
     *  (devices wake as soon as the harvester charges past vOn, so
     *  they rarely start with a full capacitor). */
    double initialVoltage = 0;

    /** Crash and bit-error injection (off by default; when off the
     *  run is bit-identical to a fault-free build). */
    FaultConfig faults;

    /**
     * Cooperative cancellation: when non-null and the pointed-to flag
     * becomes true, the run gives up at the next low-cadence check and
     * reports completed=false, exactly as if maxCycles had been
     * exhausted. nvmr_serve uses this to enforce host wall-clock
     * deadlines and drain-grace aborts without wall time ever entering
     * the simulation itself (a cancelled run's result is discarded and
     * never journaled, so determinism is untouched).
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Which execution engine drives the main loop. Both engines
     * produce bit-identical results, so this is a host-side speed
     * knob only; Default defers to --engine / NVMR_ENGINE / threaded
     * (see sim/engine.hh).
     */
    EngineKind engine = EngineKind::Default;

    /**
     * When non-null, both engines call the sink at every safe point
     * (the first instruction boundary after a committed backup); the
     * sink decides whether to Simulator::captureSnapshot(). Capturing
     * never charges energy or cycles, so an attached sink cannot
     * change simulation results.
     */
    SnapshotSink *snapshots = nullptr;

    /**
     * When non-null, the run resumes from this snapshot instead of
     * booting from reset: the forked run is byte-identical to the run
     * that captured the snapshot continuing past the capture point.
     * The snapshot must come from a simulator built with the same
     * program, architecture, configuration, policy kind, and harvest
     * trace; fault *schedules* may differ (forks re-derive their
     * schedule cursors), which is exactly what crash-point
     * exploration needs. The PowerOn trace event and the Initial
     * backup are skipped -- they already happened in the parent run.
     */
    const MachineSnapshot *resumeFrom = nullptr;
};

/**
 * Result of a continuously-powered (golden) execution: the reference
 * final state every intermittent run is diffed against (the
 * differential checker calls it OracleResult, check/oracle.hh).
 */
struct GoldenResult
{
    std::vector<uint8_t> data;         ///< final flat memory image
    std::array<Word, kNumRegs> regs{}; ///< final register file
    uint32_t pc = 0;                   ///< final program counter
    uint64_t instructions = 0;
    bool halted = false;
};

/** One data-segment word where a run's final image differs from the
 *  golden run. */
struct WordDiff
{
    Addr addr = 0;
    Word expect = 0; ///< golden value
    Word actual = 0; ///< architecture's recovered value
};

/**
 * Compare every word of `prog`'s data segment, read through `arch`'s
 * latest mapping (so NvMR renames are followed), against the golden
 * image. Returns the number of diverging words; the first `max_report`
 * of them are appended to `report` when it is non-null. The one
 * final-state compare: validation and the differential checker
 * (check/oracle.hh) both call it.
 */
uint64_t diffAgainstGolden(const IntermittentArch &arch,
                           const Program &prog,
                           const GoldenResult &golden,
                           std::vector<WordDiff> *report = nullptr,
                           size_t max_report = 0);

/** Bytes of flat memory a golden run executes over: the data segment
 *  plus generous scratch, matching the application region the
 *  intermittent runs see. */
uint32_t goldenImageBytes(const Program &prog);

/**
 * Run a program to completion on a continuously-powered core with a
 * flat memory (no cache, no energy accounting). The one golden
 * interpreter: used as the correctness oracle and by workload
 * golden-model tests. `max_instructions` bounds runaway programs
 * (halted stays false when it trips). Always recomputes; see
 * goldenRun() for the cached result.
 */
GoldenResult runContinuous(const Program &prog,
                           uint64_t max_instructions = 200000000ull);

/**
 * The program's golden run (runContinuous with the default bound),
 * computed on first use and shared by every later caller. Thread-safe;
 * concurrent first calls may each compute it, but the first installer
 * wins so all callers see one result. Copies, assignments and
 * Program::invalidateDecoded() drop the cached run.
 */
std::shared_ptr<const GoldenResult> goldenRun(const Program &prog);

/** Build an architecture instance. */
std::unique_ptr<IntermittentArch> makeArch(ArchKind kind,
                                           const SystemConfig &cfg,
                                           Nvm &nvm, EnergyMeter &meter);

/**
 * One intermittent simulation. The simulator is single-use: build,
 * run(), read the result. Components charge energy and time into its
 * energy meter; the simulator orchestrates backups, power failures and
 * restores around it.
 */
class Simulator : public BackupHost
{
  public:
    Simulator(const Program &prog, ArchKind arch_kind,
              const SystemConfig &cfg, BackupPolicy &policy,
              const HarvestTrace &trace, RunOptions opts = {});

    /** Execute the program intermittently and collect the result. */
    RunResult run();

    // ------------------------------------------------------------------
    // BackupHost (architectures trigger backups through here)
    // ------------------------------------------------------------------
    void requestBackup(BackupReason reason) override;

    /** The architecture under simulation (tests introspect it). */
    IntermittentArch &archRef() { return *arch; }
    const Capacitor &capacitorRef() const { return meter.capacitor(); }

    /** The simulated core (the differential oracle diffs its final
     *  register file against the reference interpreter's). */
    const Cpu &cpuRef() const { return cpu; }

    /**
     * Attach a trace sink (optional; call before run()). The sink's
     * clocks are bound to this simulator's cycle counters and the
     * sink is forwarded to the architecture, the CPU and the fault
     * injector. Tracing never charges energy or cycles, so an
     * attached sink cannot change simulation results.
     */
    void attachTrace(TraceSink *sink_);

    /** The run's fault injector (crashtest reads the backup-window
     *  census and fault counters out of it). */
    const FaultInjector &faultInjector() const { return injector; }

    /** The NVM model (tests inspect COW page sharing). */
    const Nvm &nvmRef() const { return nvm; }

    /**
     * Capture the full device + simulator state. Only legal at a safe
     * point (instruction boundary, outside atomic sections) -- in
     * practice, from a SnapshotSink callback. O(small state + NVM
     * page-table copy); the NVM page *contents* are shared
     * copy-on-write with this run until either side writes.
     */
    MachineSnapshot captureSnapshot();

    /**
     * Compare the architecture's final application image against a
     * golden continuous run (through the deterministic fault view).
     * Public so crash-point explorers can validate recovery even
     * when the crashy run itself skipped validation.
     */
    bool validateAgainstGolden(const GoldenResult &golden) const;

  private:
    /** The threaded engine (sim/engine.cc) replaces runInterpLoop()
     *  with a predecoded, fused main loop that drives this
     *  simulator's state machine directly. */
    friend class ThreadedEngine;

    const Program &program;
    const SystemConfig &cfg;
    BackupPolicy &policy;
    const HarvestTrace &trace;
    RunOptions opts;

    FaultInjector injector;
    EnergyMeter meter;
    Nvm nvm;
    std::unique_ptr<IntermittentArch> arch;
    Cpu cpu;

    /** A backup committed with a snapshot sink attached: fire the
     *  sink at the next instruction boundary (both engines check this
     *  at their loop top). Never set without opts.snapshots. */
    bool snapPending = false;
    TraceSink *tracer = nullptr;

    /** Orchestration-level histograms, registered into the
     *  architecture's StatGroup alongside its counters. */
    Histogram backupIntervalHist{
        "backup_interval_cycles",
        "active cycles between committed backups"};
    Histogram onPeriodHist{
        "on_period_cycles",
        "active cycles per powered-on period"};
    Histogram nvmWearHist{
        "nvm_wear_per_word",
        "accounted writes per worn NVM word (end of run)"};

    uint64_t lastBackupActive = 0;
    uint64_t resumeActive = 0;

    /** Clear snapPending and invoke the sink (out of line so the
     *  engines' hot loops only pay a predictable not-taken branch). */
    void fireSnapshotPoint();

    /** Overwrite all dynamic state from a snapshot (resumeFrom). */
    void restoreSnapshot(const MachineSnapshot &snap);

    /** Give up the run: move the wall clock past the budget so every
     *  enclosing wait loop unwinds through its give-up path. */
    void exhaustBudget() { meter.setTotalCycles(opts.maxCycles + 1); }

    void maybePolicyBackup();
    void hibernate();
    void handlePowerFailure();
    void rebootFromReset();
    void waitForRecharge(NanoJoules need_nj);

    /** The reference main loop (engine=interp); returns `completed`. */
    bool runInterpLoop();

    RunResult makeResult(bool completed, bool validated) const;
};

} // namespace nvmr

#endif // NVMR_SIM_SIMULATOR_HH
