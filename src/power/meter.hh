/**
 * @file
 * The energy meter: the one place every component charges energy and
 * time. It owns the charging state of a run -- the capacitor, the
 * energy ledger, the wall and active clocks, the harvest-sample cache,
 * the spending mode -- and drives the fault injector's cycle crash
 * points as the clock advances.
 *
 * Caches, Bloom filters, the NVM, the architectures and NvMR's
 * renaming structures charge it several times per simulated
 * instruction (every SRAM, LBF/GBF and NVM word access of Table 2),
 * so the class is concrete and its charge paths are defined inline
 * here: a 4-word line fill or a 17-word register persist compiles to
 * straight-line per-word charges. Only the brown-out is out of line.
 */

#ifndef NVMR_POWER_METER_HH
#define NVMR_POWER_METER_HH

#include <cstdint>

#include "common/bytes.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "fault/fault.hh"
#include "power/capacitor.hh"
#include "power/energy.hh"
#include "power/trace.hh"

/** The charge paths -- the meter's and the NVM word accessors that
 *  call it -- are forced inline into their callers: every call site
 *  is a per-access or per-word charge, and GCC otherwise keeps
 *  out-of-line copies of the larger ones. */
#if defined(__GNUC__)
#define NVMR_METER_INLINE [[gnu::always_inline]] inline
#else
#define NVMR_METER_INLINE inline
#endif

namespace nvmr
{

class EnergyMeter final
{
  public:
    /**
     * @param cap The storage capacitor (copied; the meter owns it).
     * @param tech Technology constants; the per-cycle core, leakage
     *        and map-table-cache leakage energies are hoisted here.
     * @param trace Harvest trace integrated as the clock advances.
     * @param faults Injector whose cycle crash points the clock
     *        drives (a default-constructed one never fires).
     * @param strict_atomic Panic on a brown-out inside an atomic
     *        section instead of throwing PowerFailure
     *        (--strict-atomic).
     */
    EnergyMeter(const Capacitor &cap, const TechParams &tech,
                const HarvestTrace &trace, FaultInjector &faults,
                bool strict_atomic = false);

    EnergyMeter(const EnergyMeter &) = delete;
    EnergyMeter &operator=(const EnergyMeter &) = delete;

    // ------------------------------------------------------------------
    // Charges (components)
    // ------------------------------------------------------------------

    /** Charge energy in the current mode's base category. */
    NVMR_METER_INLINE void
    consume(NanoJoules nj)
    {
        charge<false>(nj, false);
    }

    /** Charge energy in the current mode's overhead category (the
     *  NvMR renaming structures). */
    NVMR_METER_INLINE void
    consumeOverhead(NanoJoules nj)
    {
        charge<false>(nj, true);
    }

    /** Advance simulated time by n cycles (memory stalls) in the
     *  current mode: integrates harvesting, charges per-cycle core,
     *  leakage and map-table-cache leakage energy, and passes the
     *  cycle crash point. */
    NVMR_METER_INLINE void
    addCycles(Cycles n)
    {
        if (n == 0)
            return;
        advance<false>(n);
    }

    /**
     * The instruction-retire charge of both engines: addCycles() with
     * the mode known to be Execute (every retire happens outside
     * backups and restores) and n >= 1 (every instruction takes a
     * cycle), so the charge goes straight to the Forward pending
     * slots.
     */
    NVMR_METER_INLINE void
    retireCycles(Cycles n)
    {
        debug_assert(n > 0 && spendMode == EMode::Execute,
                     "retire charge outside Execute mode");
        advance<true>(n);
    }

    // ------------------------------------------------------------------
    // Orchestration (the simulator)
    // ------------------------------------------------------------------

    /** Spending mode: which categories charges land in. */
    EMode mode() const { return spendMode; }
    void setMode(EMode m) { spendMode = m; }

    /** Inside an atomic section (backup persist or restore). */
    bool atomic() const { return inAtomic; }
    void setAtomic(bool a) { inAtomic = a; }

    /** Charge NvMR's map-table-cache leakage per active cycle. */
    void setMtLeak(bool on) { chargesMtLeak = on; }

    /**
     * Powered-off or hibernating time: harvest over n cycles and
     * advance the wall clock only (no active cycles, no per-cycle
     * charge, no crash point).
     */
    void
    idle(Cycles n)
    {
        cap.harvestNj(trace.harvestedNj(wallCycles, n));
        wallCycles += n;
    }

    /** Move the wall clock (a run giving up sets it past its
     *  budget). */
    void setTotalCycles(uint64_t total) { wallCycles = total; }

    /** Harvested power under the current cycle (policy input). */
    double
    harvestMwNow()
    {
        if (wallCycles >= harvestSampleEnd)
            refreshHarvestCache();
        return harvestMwCached;
    }

    Capacitor &capacitor() { return cap; }
    const Capacitor &capacitor() const { return cap; }
    EnergyAccount &ledger() { return account; }
    const EnergyAccount &ledger() const { return account; }

    /** Wall cycles, including off/recharge time. References so trace
     *  sinks can bind them as event clocks. */
    const uint64_t &totalCycles() const { return wallCycles; }

    /** Cycles spent powered on. */
    const uint64_t &activeCycles() const { return poweredCycles; }

    /** Serialize the dynamic state (capacitor energy, ledger, clocks,
     *  harvest cache) for a machine snapshot. */
    void saveState(ByteWriter &w) const;

    /** Restore state captured by saveState(); resets the mode. */
    void restoreState(ByteReader &r);

  private:
    Capacitor cap;
    EnergyAccount account;
    const HarvestTrace &trace;
    FaultInjector &faults;

    /** Hoisted per-cycle energies: cpuCycleNj + leakNjPerCycle, and
     *  mtCacheLeakNjPerCycle. */
    const NanoJoules fwdNjPerCycle;
    const NanoJoules mtNjPerCycle;
    const bool strictAtomic;

    EMode spendMode = EMode::Execute;
    bool inAtomic = false;
    bool chargesMtLeak = false;

    uint64_t wallCycles = 0;
    uint64_t poweredCycles = 0;

    /** Harvest-trace sample under the current cycle, cached so the
     *  per-instruction path avoids the trace's div/mod lookup. The
     *  cache holds until the wall clock reaches harvestSampleEnd (the
     *  next 1 kHz sample boundary); idle time advances past it, which
     *  simply forces a refresh. */
    double harvestMwCached = 0;
    uint64_t harvestSampleEnd = 0;

    void refreshHarvestCache();

    /** The capacitor browned out: throw PowerFailure (or panic under
     *  strict atomicity inside an atomic section). Out of line and
     *  cold so the inlined charges keep only the dead() test. */
#if defined(__GNUC__)
    [[gnu::cold]]
#endif
    [[noreturn]] void brownOut();

    ECat
    categoryFor(bool overhead) const
    {
        switch (spendMode) {
          case EMode::Execute:
            return overhead ? ECat::ForwardOverhead : ECat::Forward;
          case EMode::Backup:
            return overhead ? ECat::BackupOverhead : ECat::Backup;
          case EMode::Restore:
            return overhead ? ECat::RestoreOverhead : ECat::Restore;
          case EMode::Reclaim:
            return ECat::Reclaim;
          default:
            panic("bad energy mode");
        }
    }

    /**
     * One charge: drain, ledger add, dead() test -- that order is
     * part of the bit-identity contract. Execute mode adds to the
     * Forward pending slots without the categoryFor switch;
     * `Execute` true means the caller knows the mode is Execute.
     */
    template <bool Execute>
    NVMR_METER_INLINE void
    charge(NanoJoules nj, bool overhead)
    {
        cap.drainNj(nj);
        if (Execute || spendMode == EMode::Execute)
            account.spendPending(overhead ? ECat::ForwardOverhead
                                          : ECat::Forward,
                                 nj);
        else
            account.spendCommitted(categoryFor(overhead), nj);
        if (cap.dead())
            brownOut();
    }

    /** The one per-cycle charge (n > 0): harvest, clocks, core and
     *  leakage energy, then the cycle crash point. */
    template <bool Execute>
    NVMR_METER_INLINE void
    advance(Cycles n)
    {
        if (wallCycles + n <= harvestSampleEnd) {
            // Whole interval inside the cached sample: the multiply
            // harvestedNj would do, without the per-sample walk.
            cap.harvestNj(harvestMwCached * HarvestTrace::njPerMwCycle *
                          static_cast<double>(n));
        } else {
            cap.harvestNj(trace.harvestedNj(wallCycles, n));
        }
        wallCycles += n;
        if (wallCycles >= harvestSampleEnd)
            refreshHarvestCache();
        poweredCycles += n;
        const double dn = static_cast<double>(n);
        charge<Execute>(dn * fwdNjPerCycle, false);
        if (chargesMtLeak)
            charge<Execute>(dn * mtNjPerCycle, true);
        faults.cyclePoint(wallCycles);
    }
};

} // namespace nvmr

#endif // NVMR_POWER_METER_HH
