/**
 * @file
 * The one implementation of each campaign kind: sweep, fuzz,
 * crashtest and diff. Each is a function over a JobSpec
 * (serve/job.hh) that runs the job's cells through the crash-safe
 * campaign layer (campaign/campaign.hh) and returns the rendered
 * artifacts: the sweep CSV or the text log of the other kinds, plus
 * an `nvmr-run-manifest-v1` manifest. The text-log kinds also hand
 * each line to an optional LineSink as it is rendered. A job-level
 * problem (a corrupt journal payload, a golden run that does not
 * halt) is a failReason, never a fatal(). `nvmr_sweep`,
 * `nvmr_fuzz`, `nvmr_crashtest` and `nvmr_diff` parse their argv
 * into a JobSpec and print the result; nvmr_serve calls runJob,
 * which lands the same artifacts in `<out>/<job>.{csv,out,stats.json}`.
 * Outputs are written atomically (common/fsutil.hh) AFTER the
 * campaign finishes, and the per-job journal is fsync'd per cell, so
 * a SIGKILL at any point resumes to byte-identical outputs.
 *
 * Programs are assembled through a shared cache: one decoded image
 * set serves every job in the process, and assembly stays on the
 * calling thread (the assembler caches are not thread-safe).
 */

#ifndef NVMR_SERVE_RUNNER_HH
#define NVMR_SERVE_RUNNER_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "check/fuzzcases.hh"
#include "isa/program.hh"
#include "obs/manifest.hh"
#include "serve/job.hh"

namespace nvmr::serve
{

/** Process-wide workload image set (assembled on demand, kept for
 *  the life of the service, with each Program's decoded-op image and
 *  golden run cached on it). */
class ProgramCache
{
  public:
    /** Assemble-or-fetch. Call from one thread only (the service
     *  thread, or the tool's main thread). */
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
     *  kExitDegraded) for a Complete job; the interrupt exit code
     *  (128+signal) for an Interrupted one. */
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
    std::string journalPath; ///< campaign journal ("" = none)
    bool resume = false;     ///< resume from journalPath (the
                             ///  campaign fatal()s on an untrusted
                             ///  one; the service pre-validates)
    std::string outDir;      ///< runJob: <outDir>/<name>.{csv,out,...}

    /** Deadline/drain cancel flag for this attempt (may be null). */
    const std::atomic<bool> *cancel = nullptr;
};

/** Receives each log line as it is rendered. */
using LineSink = std::function<void(const std::string &)>;

/** One campaign's rendered artifacts, before anything is written. */
struct CampaignRun
{
    explicit CampaignRun(const std::string &tool, LineSink sink_ = nullptr)
        : manifest(tool), sink(std::move(sink_))
    {}

    /** Append one log line to `text` and hand it to the sink. */
    void
    emit(const std::string &line)
    {
        text += line;
        if (sink)
            sink(line);
    }

    /** resultCode is Campaign::exitCode of the verdict: output I/O
     *  failures are the caller's to fold in. */
    JobOutcome outcome;

    /** False when there is nothing to publish: a cancelled attempt,
     *  or a journal payload that does not decode (failReason). */
    bool rendered = false;

    std::string text;         ///< sweep CSV / text log
    ManifestWriter manifest;  ///< runs, config and campaign extras

    /** The checked case that failed, for a `.repro` file: a diff
     *  failure, or an oracle-mode fuzz divergence. */
    std::optional<CheckCase> failingCase;

    LineSink sink; ///< may be null
};

/**
 * Run a sweep job's grid. `tool` names the campaign in its journal
 * header and manifest ("nvmr_sweep" or "nvmr_serve"); a journal
 * written by another tool is refused on resume. Quarantined cells
 * are warned about on stderr.
 */
CampaignRun runSweepCampaign(const JobSpec &job, const std::string &tool,
                             const JobRunOptions &opts,
                             ProgramCache &programs);

/**
 * Run a fuzz job's (program, case) grid in chunks of 10 programs,
 * stopping at the first divergence. Every log line -- the progress
 * line after each chunk, the failure report, the closing verdict --
 * is appended to the returned text and passed to `sink` (if any) as
 * it is rendered.
 */
CampaignRun runFuzzCampaign(const JobSpec &job, const std::string &tool,
                            const JobRunOptions &opts,
                            const LineSink &sink = nullptr);

/**
 * Run a crashtest job: one census stage (a cell per workload x arch)
 * that records every backup's persist window and captures the
 * snapshots the crash points fork from, then one points stage that
 * crashes a run at every explored persist boundary and sampled cycle
 * and requires it to recover to the golden final state. Point
 * failures are findings: they are journaled and reported, and the
 * campaign goes on. Verification (--verify-fork) and every report
 * line follow on the calling thread, in (workload, arch) order.
 */
CampaignRun runCrashtestCampaign(const JobSpec &job,
                                 const std::string &tool,
                                 const JobRunOptions &opts,
                                 ProgramCache &programs,
                                 const LineSink &sink = nullptr);

/**
 * Run a diff job: per architecture and base platform, a census of
 * where backups commit, then adversarial crash schedules aimed at it,
 * each run under the lockstep invariant checker and diffed against
 * the golden oracle. Stops at the first failure, whose case rides in
 * CampaignRun::failingCase.
 */
CampaignRun runDiffCampaign(const JobSpec &job, const std::string &tool,
                            const JobRunOptions &opts,
                            const LineSink &sink = nullptr);

/** Run one job start to finish (or to interrupt/cancel) as
 *  nvmr_serve, and write its outputs. Never fatal()s on job-level
 *  problems; returns the outcome instead. */
JobOutcome runJob(const JobSpec &job, const JobRunOptions &opts,
                  ProgramCache &programs);

} // namespace nvmr::serve

#endif // NVMR_SERVE_RUNNER_HH
