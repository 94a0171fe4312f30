#include "power/policy.hh"

#include "common/log.hh"

namespace nvmr
{

bool
JitPolicy::shouldBackup(const PolicyContext &ctx)
{
    return ctx.cap.usableNj() <= ctx.backupCostNj * margin + slackNj;
}

bool
WatchdogPolicy::shouldBackup(const PolicyContext &ctx)
{
    return ctx.cyclesSinceBackup >= period;
}

SpendthriftPolicy::SpendthriftPolicy(const SpendthriftModel &m,
                                     Cycles poll_period,
                                     Cycles resume_cooldown)
    : model(m), pollPeriod(poll_period), resumeCooldown(resume_cooldown)
{
}

bool
SpendthriftPolicy::shouldBackup(const PolicyContext &ctx)
{
    if (ctx.activeCycles < lastPoll + pollPeriod)
        return false;
    lastPoll = ctx.activeCycles;
    if (ctx.cyclesSinceResume < resumeCooldown)
        return false;
    return model.predict(static_cast<float>(ctx.harvestMw),
                         static_cast<float>(ctx.cap.voltage()));
}

std::unique_ptr<BackupPolicy>
makePolicy(const PolicySpec &spec)
{
    switch (spec.kind) {
      case PolicyKind::Jit:
        return std::make_unique<JitPolicy>(spec.jitMargin);
      case PolicyKind::Watchdog:
        return std::make_unique<WatchdogPolicy>(spec.watchdogPeriod);
      case PolicyKind::Spendthrift:
        fatal_if(!spec.model,
                 "spendthrift policy needs a trained model");
        return std::make_unique<SpendthriftPolicy>(*spec.model);
      case PolicyKind::None:
        return std::make_unique<NonePolicy>();
      default:
        panic("bad policy kind");
    }
}

} // namespace nvmr
