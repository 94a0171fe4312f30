#include "snapshot/snapshot.hh"

#include "common/log.hh"
#include "fault/fault.hh"
#include "sim/simulator.hh"

namespace nvmr
{

void
CollectingSnapshotSink::onSnapshotPoint(Simulator &sim)
{
    uint64_t seen = pointsSeen++;
    if (seen % stride != 0)
        return;
    if (sim.faultInjector().backupWindows().size() > maxWindows)
        return;
    snapshots.push_back(
        std::make_shared<MachineSnapshot>(sim.captureSnapshot()));
}

void
finishRestore(const ByteReader &r)
{
    panic_if(!r.ok(), "snapshot blob underrun: ", r.error());
    panic_if(!r.atEnd(), "snapshot blob has trailing bytes");
}

ptrdiff_t
forkSource(const std::vector<SnapshotPtr> &snaps,
           const FaultConfig &faults)
{
    auto before = [](uint64_t count, uint64_t crash) {
        return crash == 0 || count < crash;
    };
    ptrdiff_t best = -1;
    for (size_t i = 0; i < snaps.size(); ++i) {
        const MachineSnapshot &s = *snaps[i];
        bool usable = before(s.persistCount, faults.crashAtPersist) &&
                      before(s.totalCycles, faults.crashAtCycle);
        for (uint64_t p : faults.crashPersists)
            usable = usable && before(s.persistCount, p);
        for (uint64_t t : faults.crashCycles)
            usable = usable && before(s.totalCycles, t);
        if (!usable)
            break; // every later snapshot is past the point too
        best = static_cast<ptrdiff_t>(i);
    }
    return best;
}

} // namespace nvmr
