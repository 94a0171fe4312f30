/**
 * @file
 * Task-based software checkpointing (Section 2.2, Figure 2c): the
 * programmer decomposes the application into tasks (`task`
 * instructions in iisa) and the system checkpoints at every task
 * boundary, as in Chain/DINO/Alpaca [7, 22, 26]. Between boundaries
 * the inherited Clank machinery acts as the privatization safety net
 * for imperfect decompositions (tasks that are not idempotent still
 * execute correctly, at the cost of extra backups — the programmer
 * burden the paper highlights).
 */

#ifndef NVMR_ARCH_TASK_HH
#define NVMR_ARCH_TASK_HH

#include "arch/clank.hh"

namespace nvmr
{

/** Checkpoint-at-task-boundary architecture. */
class TaskArch : public ClankArch
{
  public:
    TaskArch(const SystemConfig &cfg, Nvm &nvm, EnergyMeter &meter);

    const char *name() const override { return "task"; }

    /** Every task boundary is a checkpoint. */
    void taskBoundary() override;

    /** Task boundaries crossed (== boundary backups). */
    uint64_t taskBoundaries() const { return boundaries; }

    void
    saveState(ByteWriter &w) const override
    {
        ClankArch::saveState(w);
        w.u64(boundaries);
    }

    void
    restoreState(ByteReader &r) override
    {
        ClankArch::restoreState(r);
        boundaries = r.u64();
    }

  private:
    uint64_t boundaries = 0;
};

} // namespace nvmr

#endif // NVMR_ARCH_TASK_HH
