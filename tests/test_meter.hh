/**
 * @file
 * A zero-cost energy meter for driving components directly (no
 * simulator): zero per-cycle energy and a capacitor too large to brown
 * out, so its ledger holds exactly the components' own charges.
 */

#ifndef NVMR_TESTS_TEST_METER_HH
#define NVMR_TESTS_TEST_METER_HH

#include "power/meter.hh"

namespace nvmr
{

struct TestMeter
{
    TestMeter() { meter.capacitor().setVoltage(2.4); }

    /** Components take the meter itself. */
    operator EnergyMeter &() { return meter; }

    /** Energy charged through consume() (Execute mode: the Forward
     *  pending slot). */
    NanoJoules energy() const { return pending(ECat::Forward); }

    /** Energy charged through consumeOverhead(). */
    NanoJoules overhead() const { return pending(ECat::ForwardOverhead); }

    /** Cycles charged through addCycles(). */
    Cycles cycles() const { return meter.totalCycles(); }

    static TechParams
    zeroCycleTech()
    {
        TechParams t;
        t.cpuCycleNj = 0;
        t.leakNjPerCycle = 0;
        t.mtCacheLeakNjPerCycle = 0;
        return t;
    }

    HarvestTrace trace = HarvestTrace::fromSamples("none", {0.0});
    FaultInjector faults; // disabled: no cycle crash points
    /** 10^6 F unscaled at 2.4 V: ~2.9e15 nJ stored. */
    EnergyMeter meter{Capacitor(1e6, 2.4, 2.2, 1.8, 1.0, 1.0),
                      zeroCycleTech(), trace, faults};

  private:
    NanoJoules
    pending(ECat cat) const
    {
        return meter.ledger().rawState().pending[static_cast<size_t>(cat)];
    }
};

} // namespace nvmr

#endif // NVMR_TESTS_TEST_METER_HH
