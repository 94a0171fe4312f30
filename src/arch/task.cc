#include "arch/task.hh"

#include "common/log.hh"

namespace nvmr
{

TaskArch::TaskArch(const SystemConfig &config, Nvm &nvm_,
                   EnergyMeter &mtr)
    : ClankArch(config, nvm_, mtr)
{
}

void
TaskArch::taskBoundary()
{
    ++boundaries;
    if (tracer)
        tracer->record(EventKind::TaskBoundary, boundaries);
    panic_if(!host, "TaskArch needs an attached BackupHost");
    host->requestBackup(BackupReason::TaskBoundary);
}

} // namespace nvmr
