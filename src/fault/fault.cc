#include "fault/fault.hh"

#include <algorithm>

#include "common/log.hh"

namespace nvmr
{

namespace
{

uint32_t
popcount32(Word w)
{
    uint32_t n = 0;
    while (w) {
        w &= w - 1;
        ++n;
    }
    return n;
}

} // namespace

// ----------------------------------------------------------------------
// Crash points
// ----------------------------------------------------------------------

void
FaultInjector::initSchedules()
{
    // A disabled injector never fires, whatever the schedule fields
    // hold; keeping the schedules empty lets cyclePoint's inline
    // fast path skip the enabled() check.
    if (!cfg.enabled)
        return;
    persistSched = cfg.crashPersists;
    if (cfg.crashAtPersist != 0)
        persistSched.push_back(cfg.crashAtPersist);
    cycleSched = cfg.crashCycles;
    if (cfg.crashAtCycle != 0)
        cycleSched.push_back(cfg.crashAtCycle);
    auto canon = [](std::vector<uint64_t> &v) {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
        while (!v.empty() && v.front() == 0)
            v.erase(v.begin());
    };
    canon(persistSched);
    canon(cycleSched);
}

void
FaultInjector::persistPoint()
{
    if (!cfg.enabled)
        return;
    ++st.persistPoints;
    if (windowOpen) {
        if (current.firstPersist == 0)
            current.firstPersist = st.persistPoints;
        current.lastPersist = st.persistPoints;
    }
    while (persistIdx < persistSched.size() &&
           persistSched[persistIdx] < st.persistPoints)
        ++persistIdx;
    if (persistIdx < persistSched.size() &&
        persistSched[persistIdx] == st.persistPoints) {
        ++persistIdx;
        ++st.injectedCrashes;
        closeWindow();
        if (tracer)
            tracer->record(EventKind::FaultCrash, st.persistPoints, 0);
        throw PowerFailure{};
    }
}

void
FaultInjector::fireCyclePoint(uint64_t total_cycles)
{
    // Fire once per armed point; skip any that this jump passed over.
    while (cycleIdx < cycleSched.size() &&
           cycleSched[cycleIdx] <= total_cycles)
        ++cycleIdx;
    ++st.injectedCrashes;
    closeWindow();
    if (tracer)
        tracer->record(EventKind::FaultCrash, st.persistPoints,
                       total_cycles);
    throw PowerFailure{};
}

// ----------------------------------------------------------------------
// Backup-window census
// ----------------------------------------------------------------------

void
FaultInjector::noteBackupStart()
{
    if (!cfg.enabled)
        return;
    closeWindow(); // tolerate a window left open by a crash
    windowOpen = true;
    current = BackupWindow{};
}

void
FaultInjector::noteBackupEnd()
{
    if (!cfg.enabled)
        return;
    closeWindow();
}

void
FaultInjector::noteBackupCommit()
{
    if (!cfg.enabled || !windowOpen)
        return;
    current.commitPersist = st.persistPoints;
}

void
FaultInjector::closeWindow()
{
    if (!windowOpen)
        return;
    windowOpen = false;
    if (current.firstPersist != 0)
        windows.push_back(current);
}

// ----------------------------------------------------------------------
// Machine snapshots
// ----------------------------------------------------------------------

void
FaultInjector::saveState(ByteWriter &w) const
{
    w.pod(st);
    w.u64(rng.rawState());
    w.u64(stuck.size());
    for (const auto &[addr, cell] : stuck) {
        w.pod(addr);
        w.pod(cell);
    }
    w.boolean(windowOpen);
    w.pod(current);
    w.vec(windows);
}

void
FaultInjector::restoreState(ByteReader &r,
                            uint64_t restored_total_cycles)
{
    st = r.pod<FaultStats>();
    rng.setRawState(r.u64());
    stuck.clear();
    uint64_t n = r.count(r.u64(), sizeof(Addr) + sizeof(StuckCell));
    for (uint64_t i = 0; i < n; ++i) {
        Addr addr = r.pod<Addr>();
        stuck[addr] = r.pod<StuckCell>();
    }
    windowOpen = r.boolean();
    current = r.pod<BackupWindow>();
    windows = r.vec<BackupWindow>();
    // Re-aim the cursors at this run's own schedules. persistPoint()
    // fires on equality after incrementing, so "already fired" means
    // <= the restored counter; cyclePoint() fires on >=, so entries
    // at or before the restored clock must be skipped explicitly.
    persistIdx = std::upper_bound(persistSched.begin(),
                                  persistSched.end(),
                                  st.persistPoints) -
                 persistSched.begin();
    cycleIdx = std::upper_bound(cycleSched.begin(), cycleSched.end(),
                                restored_total_cycles) -
               cycleSched.begin();
}

// ----------------------------------------------------------------------
// Bit errors
// ----------------------------------------------------------------------

void
FaultInjector::onWordWritten(Addr addr, uint64_t wear)
{
    if (!cfg.enabled || cfg.stuckBitRatePerWrite <= 0.0)
        return;
    if (wear <= cfg.stuckWearThreshold)
        return;
    double p = cfg.stuckBitRatePerWrite *
               static_cast<double>(wear - cfg.stuckWearThreshold);
    if (rng.uniform() >= p)
        return;
    uint32_t bit = static_cast<uint32_t>(rng.range(0, 31));
    StuckCell &cell = stuck[addr];
    if (cell.mask & (1u << bit))
        return; // already stuck
    cell.mask |= 1u << bit;
    if (rng.uniform() < 0.5)
        cell.values |= 1u << bit;
    ++st.stuckBitsCreated;
    if (tracer)
        tracer->record(EventKind::StuckBit, addr, bit);
}

void
FaultInjector::forceStuckBit(Addr addr, uint32_t bit, bool stuck_high)
{
    panic_if(bit >= 32, "stuck bit index out of range: ", bit);
    StuckCell &cell = stuck[addr];
    cell.mask |= 1u << bit;
    if (stuck_high)
        cell.values |= 1u << bit;
    else
        cell.values &= ~(1u << bit);
}

Word
FaultInjector::stuckErrorMask(Addr addr, Word stored) const
{
    auto it = stuck.find(addr);
    if (it == stuck.end())
        return 0;
    return (stored ^ it->second.values) & it->second.mask;
}

Word
FaultInjector::sampleTransientMask()
{
    if (cfg.transientBitErrorRate <= 0.0)
        return 0;
    if (rng.uniform() >= cfg.transientBitErrorRate)
        return 0;
    Word mask = 1u << rng.range(0, 31);
    ++st.transientFlips;
    if (rng.uniform() < cfg.doubleBitFraction) {
        Word second;
        do {
            second = 1u << rng.range(0, 31);
        } while (second == mask);
        mask |= second;
        ++st.transientFlips;
    }
    return mask;
}

FaultInjector::ReadOutcome
FaultInjector::applyReadFaults(Addr addr, Word stored)
{
    // Error bits relative to the stored (intended) value. Stuck cells
    // contribute on every attempt; transients re-sample per attempt.
    Word persistent = stuckErrorMask(addr, stored);
    ReadOutcome out;
    for (;;) {
        Word err = persistent | sampleTransientMask();
        uint32_t nerr = popcount32(err);
        if (!cfg.eccEnabled) {
            out.value = stored ^ err;
            return out;
        }
        if (nerr == 0) {
            out.value = stored;
            return out;
        }
        if (nerr == 1) {
            // SECDED corrects a single bit error transparently.
            ++st.eccCorrected;
            if (tracer)
                tracer->record(EventKind::EccCorrected, addr);
            out.value = stored;
            return out;
        }
        // Detected (or aliased) multi-bit error: bounded retry.
        if (out.retries >= cfg.maxReadRetries) {
            ++st.eccUncorrectable;
            if (tracer)
                tracer->record(EventKind::EccUncorrectable, addr);
            out.value = stored ^ err;
            return out;
        }
        ++out.retries;
        ++st.eccRetries;
    }
}

Word
FaultInjector::inspectStored(Addr addr, Word stored) const
{
    Word err = stuckErrorMask(addr, stored);
    if (err == 0)
        return stored;
    if (cfg.eccEnabled && popcount32(err) <= 1)
        return stored; // correctable: reads return the intended value
    return stored ^ err;
}

} // namespace nvmr
