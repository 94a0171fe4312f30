/**
 * @file
 * Our version of Clank [16] per Section 5.1: the original Clank's
 * read-first/write-first buffers are replaced by the same GBF/LBF
 * structures NvMR uses, and the write-back buffer by a write-back
 * data cache. On a dirty, read-dominated eviction (an idempotency
 * violation) Clank must back up the whole system before the violating
 * block may be written to NVM.
 */

#ifndef NVMR_ARCH_CLANK_HH
#define NVMR_ARCH_CLANK_HH

#include "arch/arch.hh"

namespace nvmr
{

/** Backup-on-violation architecture (the paper's baseline). */
class ClankArch : public DominanceArch
{
  public:
    ClankArch(const SystemConfig &cfg, Nvm &nvm, EnergyMeter &meter);

    const char *name() const override { return "clank"; }

    void performBackup(const CpuSnapshot &snap,
                       BackupReason reason) override;
    NanoJoules backupCostNowNj() const override;

  protected:
    void violatingWriteback(CacheLine &line) override;
};

} // namespace nvmr

#endif // NVMR_ARCH_CLANK_HH
