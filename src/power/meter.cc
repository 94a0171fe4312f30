#include "power/meter.hh"

namespace nvmr
{

EnergyMeter::EnergyMeter(const Capacitor &capacitor,
                         const TechParams &tech,
                         const HarvestTrace &harvest,
                         FaultInjector &injector, bool strict_atomic)
    : cap(capacitor), trace(harvest), faults(injector),
      fwdNjPerCycle(tech.cpuCycleNj + tech.leakNjPerCycle),
      mtNjPerCycle(tech.mtCacheLeakNjPerCycle),
      strictAtomic(strict_atomic)
{
}

void
EnergyMeter::refreshHarvestCache()
{
    harvestMwCached = trace.powerMwAtCycle(wallCycles);
    harvestSampleEnd = (wallCycles / HarvestTrace::cyclesPerSample + 1) *
                       HarvestTrace::cyclesPerSample;
}

void
EnergyMeter::brownOut()
{
    // A brown-out inside an atomic section used to be fatal; with
    // partial persists modeled it is just another torn backup the
    // recovery protocol handles. --strict-atomic restores the old
    // behavior for A/B comparison of cost-estimate regressions.
    panic_if(inAtomic && strictAtomic,
             "brown-out inside an atomic operation: a cost estimate "
             "is too low");
    throw PowerFailure{};
}

void
EnergyMeter::saveState(ByteWriter &w) const
{
    w.f64(cap.rawEnergy());
    w.pod(account.rawState());
    w.u64(poweredCycles);
    w.u64(wallCycles);
    w.f64(harvestMwCached);
    w.u64(harvestSampleEnd);
}

void
EnergyMeter::restoreState(ByteReader &r)
{
    cap.setRawEnergy(r.f64());
    account.setRawState(r.pod<EnergyAccount::Raw>());
    poweredCycles = r.u64();
    wallCycles = r.u64();
    harvestMwCached = r.f64();
    harvestSampleEnd = r.u64();
    spendMode = EMode::Execute;
    inAtomic = false;
}

} // namespace nvmr
