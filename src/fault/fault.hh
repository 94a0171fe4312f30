/**
 * @file
 * Crash-consistency fault injection: deterministic power cuts at
 * arbitrary cycle or NVM-persist boundaries (torn multi-word writes
 * leave a prefix), plus a wear-coupled NVM bit-error model with a
 * SECDED ECC layer and bounded read-retry.
 *
 * The injector is deliberately zero-cost when disabled: every hook is
 * behind an `enabled()` branch and the simulator's accounting paths
 * are bit-identical to the no-fault build (see docs/fault-model.md).
 */

#ifndef NVMR_FAULT_FAULT_HH
#define NVMR_FAULT_FAULT_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bytes.hh"
#include "common/types.hh"
#include "common/xorshift.hh"
#include "obs/trace.hh"

namespace nvmr
{

/**
 * Thrown when the capacitor browns out during execution -- or when
 * the fault injector cuts power at an armed crash point. The
 * simulator's main loop catches it and runs the power-failure /
 * recharge / restore sequence.
 */
struct PowerFailure
{
};

/** Knobs for the fault injector. All off by default. */
struct FaultConfig
{
    /** Master switch; when false every hook is a no-op and the
     *  simulation is bit-identical to a build without the fault
     *  layer. */
    bool enabled = false;

    /**
     * Cut power immediately *before* the Nth accounted NVM persist
     * (1-based; 0 disables). Persist boundaries are counted across
     * every charged NVM word write: data writebacks, journal copies,
     * map-table and free-list updates, and register-snapshot words.
     * Crashing at boundary N means persists 1..N-1 completed and the
     * Nth never happened -- a torn multi-word persist leaves exactly
     * a prefix.
     */
    uint64_t crashAtPersist = 0;

    /** Cut power once totalCycles reaches this value (0 disables). */
    uint64_t crashAtCycle = 0;

    /**
     * Multi-crash schedules (the adversarial power-schedule
     * generator in src/check). Each entry arms one crash at an
     * absolute cumulative persist boundary / totalCycles value, in
     * addition to the single-shot fields above; entries fire in
     * ascending order, each at most once. Zeros are ignored.
     */
    std::vector<uint64_t> crashPersists;
    std::vector<uint64_t> crashCycles;

    /** Probability of a transient bit flip per accounted word read. */
    double transientBitErrorRate = 0.0;

    /** Of transient errors, fraction that flip two bits (SECDED's
     *  detectable-but-uncorrectable case). */
    double doubleBitFraction = 0.05;

    /**
     * Wear-coupled stuck-at faults: each accounted write to a word
     * whose wear exceeds stuckWearThreshold sticks a random bit with
     * probability stuckBitRatePerWrite * (wear - threshold).
     */
    double stuckBitRatePerWrite = 0.0;
    uint64_t stuckWearThreshold = 0;

    /** SECDED ECC per word: single-bit errors corrected, double-bit
     *  errors detected and retried. When false, raw corrupt data is
     *  returned to the architecture. */
    bool eccEnabled = true;

    /** Bounded re-reads after a detected (uncorrectable) error.
     *  Transient flips re-sample on retry; stuck bits persist. */
    uint32_t maxReadRetries = 2;

    /** PRNG seed for bit-error sampling. */
    uint64_t seed = 1;
};

/** Counters the injector maintains (surfaced through ArchStats). */
struct FaultStats
{
    uint64_t persistPoints = 0;     ///< accounted NVM persist boundaries
    uint64_t injectedCrashes = 0;   ///< PowerFailures thrown by us
    uint64_t transientFlips = 0;    ///< transient bit errors sampled
    uint64_t stuckBitsCreated = 0;  ///< wear-out cells gone bad
    uint64_t eccCorrected = 0;      ///< single-bit errors corrected
    uint64_t eccRetries = 0;        ///< re-reads after detected errors
    uint64_t eccUncorrectable = 0;  ///< corrupt words handed upward
};

/**
 * Deterministic, seedable fault injector. One instance per Simulator;
 * the Nvm model and the architectures hold a pointer to it.
 */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultConfig &config)
        : cfg(config), rng(config.seed)
    {
        initSchedules();
    }

    bool enabled() const { return cfg.enabled; }

    /** Attach an event sink (crash / ECC / stuck-bit events). */
    void attachTrace(TraceSink *sink_) { tracer = sink_; }

    /** True if any bit-error mechanism can fire (lets the Nvm read
     *  path skip fault work entirely for pure crash-point runs). */
    bool
    bitErrorsPossible() const
    {
        return cfg.transientBitErrorRate > 0.0 ||
               cfg.stuckBitRatePerWrite > 0.0 || !stuck.empty();
    }

    const FaultConfig &config() const { return cfg; }
    const FaultStats &stats() const { return st; }

    // ------------------------------------------------------------------
    // Crash points
    // ------------------------------------------------------------------

    /**
     * Called immediately before every accounted NVM persist. Throws
     * PowerFailure when the armed persist boundary is reached: the
     * write about to happen is lost, everything before it landed.
     */
    void persistPoint();

    /** Called as wall-clock cycles advance; throws once the armed
     *  cycle count is reached. Inlined fast-exit: this runs once per
     *  simulated instruction, so a fault-free run (empty schedule)
     *  must pay only one predictable branch. */
    void
    cyclePoint(uint64_t total_cycles)
    {
        if (cycleIdx >= cycleSched.size() ||
            total_cycles < cycleSched[cycleIdx])
            return;
        fireCyclePoint(total_cycles);
    }

    /** Total persist boundaries seen so far. */
    uint64_t persistCount() const { return st.persistPoints; }

    // ------------------------------------------------------------------
    // Backup-window census (for the crash-point explorer)
    // ------------------------------------------------------------------

    /** Persist-boundary span of one backup, [first, last], 1-based.
     *  Covers performBackup through postBackup (reclamation). */
    struct BackupWindow
    {
        uint64_t firstPersist = 0;
        uint64_t lastPersist = 0;
        /** Persist count at commitBackup(): the boundary whose write
         *  was this backup's commit record. 0 when the backup never
         *  committed (cut short by a crash). */
        uint64_t commitPersist = 0;
    };

    /** The simulator brackets each requestBackup with these; tolerant
     *  of windows cut short by a crash. */
    void noteBackupStart();
    void noteBackupEnd();

    /** Called by IntermittentArch::commitBackup the moment a staged
     *  backup becomes the recovery image; stamps the window's commit
     *  persist so schedule generators can target the boundary. */
    void noteBackupCommit();

    const std::vector<BackupWindow> &backupWindows() const
    {
        return windows;
    }

    // ------------------------------------------------------------------
    // Bit errors
    // ------------------------------------------------------------------

    /** Wear-coupled stuck-bit genesis; called after every accounted
     *  NVM word write. */
    void onWordWritten(Addr addr, uint64_t wear);

    struct ReadOutcome
    {
        Word value = 0;       ///< what the architecture receives
        uint32_t retries = 0; ///< extra charged re-reads performed
    };

    /** Run the stored word through the error + ECC pipeline for one
     *  accounted read (samples transients, applies stuck bits,
     *  corrects / retries / gives up per SECDED semantics). */
    ReadOutcome applyReadFaults(Addr addr, Word stored);

    /**
     * Deterministic fault view of a stored word for validation paths:
     * stuck bits applied, ECC correction modeled, no transient
     * sampling, no RNG perturbation, no energy.
     */
    Word inspectStored(Addr addr, Word stored) const;

    /** Force a stuck-at fault (tests and the fuzzer). */
    void forceStuckBit(Addr addr, uint32_t bit, bool stuck_high);

    // ------------------------------------------------------------------
    // Machine snapshots
    // ------------------------------------------------------------------

    /** Serialize the dynamic state (counters, RNG, stuck cells,
     *  backup windows). The configuration and crash schedules are
     *  deliberately NOT captured: a forked run keeps its own
     *  schedules and re-derives the cursors on restore. */
    void saveState(ByteWriter &w) const;

    /**
     * Restore state captured by saveState() and re-aim the schedule
     * cursors: entries at or before the restored persist counter /
     * the given totalCycles are treated as already fired.
     */
    void restoreState(ByteReader &r, uint64_t restored_total_cycles);

  private:
    FaultConfig cfg;
    FaultStats st;
    XorShift rng;
    TraceSink *tracer = nullptr;

    /** Per-word stuck cells: mask of stuck bit positions and the
     *  values they are stuck at. */
    struct StuckCell
    {
        Word mask = 0;
        Word values = 0;
    };
    std::unordered_map<Addr, StuckCell> stuck;

    bool windowOpen = false;
    BackupWindow current;
    std::vector<BackupWindow> windows;

    /** Merged, sorted crash schedules (scalar knobs included) and
     *  the next-to-fire cursors. */
    std::vector<uint64_t> persistSched;
    std::vector<uint64_t> cycleSched;
    size_t persistIdx = 0;
    size_t cycleIdx = 0;

    void initSchedules();
    [[noreturn]] void fireCyclePoint(uint64_t total_cycles);
    void closeWindow();
    Word stuckErrorMask(Addr addr, Word stored) const;
    Word sampleTransientMask();
};

} // namespace nvmr

#endif // NVMR_FAULT_FAULT_HH
