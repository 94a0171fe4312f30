#include "arch/ideal.hh"

namespace nvmr
{

IdealArch::IdealArch(const SystemConfig &config, Nvm &nvm_,
                     EnergyMeter &mtr)
    : DominanceArch(config, nvm_, mtr)
{
}

void
IdealArch::violatingWriteback(CacheLine &line)
{
    // Count the violation (DominanceArch already did) and write the
    // block home anyway: with a perfect JIT policy a backup always
    // persists before any power loss, so the unsafe writeback is
    // never observed.
    normalWriteback(line);
}

void
IdealArch::performBackup(const CpuSnapshot &snap, BackupReason reason)
{
    // Persist every dirty block to its home address, double-buffered
    // like Clank (the backup overwrites recovery state in place).
    cache.forEachLine([&](CacheLine &line) {
        if (line.valid && line.dirty) {
            journaledWriteBlock(line.blockAddr, line);
            line.markClean();
            line.dirtyWordMask = 0;
        }
    });
    persistSnapshot(snap);
    resetDominanceState();
    commitBackup(reason);
}

NanoJoules
IdealArch::backupCostNowNj() const
{
    uint64_t words = static_cast<uint64_t>(cache.dirtyCount()) *
                     cfg.cache.wordsPerBlock();
    double factor = cfg.modelBackupAtomicity ? 2.0 : 1.0;
    return (factor * nvmWriteCostNj(words) + snapshotCostNj()) *
               1.05 +
           10.0;
}

} // namespace nvmr
