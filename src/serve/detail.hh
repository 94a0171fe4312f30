/**
 * @file
 * What the campaign implementations (runner.cc, crashtest.cc,
 * diff.cc) share besides the public runner.hh interface: the cancel
 * check, the campaign options a job implies, the outcome a finished
 * campaign leaves, the quarantine warnings and printf into a string.
 * Not for use outside src/serve.
 */

#ifndef NVMR_SERVE_DETAIL_HH
#define NVMR_SERVE_DETAIL_HH

#include <atomic>
#include <string>

#include "campaign/campaign.hh"
#include "serve/runner.hh"

namespace nvmr::serve::detail
{

inline bool
cancelSet(const std::atomic<bool> *cancel)
{
    return cancel && cancel->load(std::memory_order_relaxed);
}

campaign::Options campaignOptions(const JobSpec &job,
                                  const JobRunOptions &opts);

/** Record how the campaign ended in the run's outcome. */
void endCampaign(CampaignRun &run, const campaign::Campaign &cam,
                 const JobRunOptions &opts);

/** Warn on stderr about every quarantined cell. */
void warnQuarantined(const campaign::Campaign &cam);

/** printf into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace nvmr::serve::detail

#endif // NVMR_SERVE_DETAIL_HH
