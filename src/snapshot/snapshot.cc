#include "snapshot/snapshot.hh"

#include "sim/simulator.hh"

namespace nvmr
{

void
CollectingSnapshotSink::onSnapshotPoint(Simulator &sim)
{
    uint64_t seen = pointsSeen++;
    if (seen % stride != 0)
        return;
    if (cap && snapshots.size() >= cap)
        return;
    if (sim.faultInjector().backupWindows().size() > maxWindows)
        return;
    snapshots.push_back(
        std::make_shared<MachineSnapshot>(sim.captureSnapshot()));
}

} // namespace nvmr
