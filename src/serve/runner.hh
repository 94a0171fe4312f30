/**
 * @file
 * Per-job execution for nvmr_serve: run one parsed JobSpec through
 * the crash-safe campaign layer (campaign/campaign.hh) on the shared
 * warm worker pool, producing exactly the artifacts the standalone
 * tools produce -- a sweep job writes the nvmr_sweep CSV, a fuzz job
 * the nvmr_fuzz log, both plus an `nvmr-run-manifest-v1` stats file.
 * Outputs are written atomically (common/fsutil.hh) AFTER the
 * campaign finishes, and the per-job journal is fsync'd per cell, so
 * a SIGKILL at any point resumes to byte-identical outputs.
 *
 * Programs are assembled through a shared cache: one decoded image
 * set serves every job in the process, and assembly stays on the
 * service thread (the assembler caches are not thread-safe).
 */

#ifndef NVMR_SERVE_RUNNER_HH
#define NVMR_SERVE_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "isa/program.hh"
#include "serve/job.hh"

namespace nvmr::serve
{

/** Process-wide workload image set (assembled on demand, kept for
 *  the life of the service, with each Program's decoded-op image and
 *  golden run cached on it). */
class ProgramCache
{
  public:
    /** Assemble-or-fetch. Call from the service thread only. */
    const Program &get(const std::string &workload);

    /** Bytes of cached program text+data plus the decoded-op and
     *  golden images each program builds on first use
     *  (backpressure metric). */
    uint64_t residentBytes() const { return bytes; }

  private:
    std::unordered_map<std::string, Program> cache;
    uint64_t bytes = 0;
};

/** How one job attempt ended. */
enum class JobPhase : uint8_t
{
    Complete,    ///< campaign ran to the end (ok, mismatch or
                 ///  degraded -- see resultCode)
    Interrupted, ///< SIGINT/SIGTERM drain: partial outputs written,
                 ///  journal keeps the finished cells
    Cancelled,   ///< deadline fired: no outputs, journal keeps the
                 ///  finished cells for the retry
};

struct JobOutcome
{
    JobPhase phase = JobPhase::Complete;

    /** Campaign exit-code ladder verdict (kExitOk, kExitMismatch,
     *  kExitDegraded) for a Complete job. */
    int resultCode = 0;

    /** Non-empty when the job failed a verification ("divergence",
     *  ...); empty for clean completes. */
    std::string failReason;

    uint64_t cellsResumed = 0;
    uint64_t cellsQuarantined = 0;
    bool journalDegraded = false;
};

/** Everything runJob needs besides the spec. */
struct JobRunOptions
{
    std::string journalPath; ///< per-job campaign journal
    bool resume = false;     ///< journal pre-validated by the service
    std::string outDir;      ///< <outDir>/<name>.{csv,out,stats.json}

    /** Deadline/drain cancel flag for this attempt (may be null). */
    const std::atomic<bool> *cancel = nullptr;
};

/** Run one job start to finish (or to interrupt/cancel). Never
 *  fatal()s on job-level problems; returns the outcome instead. */
JobOutcome runJob(const JobSpec &job, const JobRunOptions &opts,
                  ProgramCache &programs);

} // namespace nvmr::serve

#endif // NVMR_SERVE_RUNNER_HH
