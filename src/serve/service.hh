/**
 * @file
 * The nvmr_serve supervisor: a long-running job-queue service that
 * watches a spool directory for `nvmr-job-v1` files, admits them
 * under backpressure limits, and runs each through the crash-safe
 * campaign layer on the shared warm worker pool -- sweep and fuzz
 * campaigns in one process with one decoded workload image set.
 *
 * Robustness contract (docs/operations.md "Running nvmr_serve"):
 *
 *  - Per-job crash safety: every job checkpoints into its own
 *    CRC-framed journal under <state>/jrn/; a SIGKILL'd service
 *    restarted with --resume re-admits the spool and skips completed
 *    cells, producing byte-identical outputs.
 *  - Deadlines: a per-job host wall-clock budget (doubled per retry)
 *    layered on the deterministic simulated-cycle watchdog; poison
 *    jobs are retried with exponential backoff (common/backoff.hh)
 *    and finally quarantined, leaving healthy jobs unaffected.
 *  - Graceful drain: the first SIGTERM/SIGINT stops admission,
 *    checkpoints the in-flight job, flushes manifests and a final
 *    service snapshot, and exits through the standard ladder
 *    (common/exitcodes.hh); a second signal force-exits.
 *  - Degraded modes: spool parse errors and journal I/O faults mark
 *    the one job failed-with-reason (warned once) while the daemon
 *    keeps serving, and the service exits 3 at shutdown.
 *  - Liveness: per-job `nvmr-metrics-v1` heartbeats plus the
 *    service-level `nvmr-serve-v1` snapshot (<state>/serve.json)
 *    that `nvmr_report` renders.
 */

#ifndef NVMR_SERVE_SERVICE_HH
#define NVMR_SERVE_SERVICE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "campaign/journal.hh"
#include "common/backoff.hh"
#include "serve/job.hh"
#include "serve/runner.hh"

namespace nvmr::serve
{

constexpr const char *kServeSchema = "nvmr-serve-v1";

struct ServeOptions
{
    std::string spoolDir;
    std::string stateDir; ///< default: <spool>/.nvmr_serve

    /** Drain once the spool is empty instead of polling forever. */
    bool once = false;

    /** Re-admit the spool against the service + per-job journals. */
    bool resume = false;

    uint64_t pollMs = 500;  ///< spool scan period when idle
    uint64_t graceMs = 2000; ///< drain: cancel in-flight cells after

    /** Backpressure: admission defers (never drops) past these. */
    unsigned maxQueuedJobs = 16;
    uint64_t maxInflightCells = 0;           ///< 0 = no clamp
    uint64_t maxResidentBytes = 256ull << 20; ///< cached programs +
                                              ///  estimated job state

    /** Per-job heartbeat period; 0 disables job metrics files. */
    double jobMetricsInterval = 5.0;

    /** Retry pacing for deadline-cancelled jobs (tests shrink it). */
    Backoff retryBackoff{100'000'000ull, 5'000'000'000ull,
                         0x7365727665ull};
};

/** Serialize / parse the service journal's record of one job: name,
 *  spool content hash, status, attempts, result code and reason. */
std::string encodeJobRecord(const std::string &name, uint64_t hash,
                            uint8_t status, unsigned attempts,
                            int result_code, const std::string &reason);
bool decodeJobRecord(const std::string &payload, std::string &name,
                     uint64_t &hash, uint8_t &status,
                     unsigned &attempts, int &result_code,
                     std::string &reason);

/** One service run. Construct, then run() until drained. */
class Service
{
  public:
    explicit Service(ServeOptions opts);
    ~Service();

    /** Serve until drained (signal or --once); returns the process
     *  exit code (0 clean, 1 any mismatch, 3 any failure /
     *  quarantine / degraded journal). */
    int run();

  private:
    struct JobRecord
    {
        uint64_t hash = 0;   ///< spool content at completion time
        uint8_t status = 0;  ///< 0 done, 1 failed, 2 quarantined
        unsigned attempts = 0;
        int resultCode = 0;
        std::string reason;
    };

    void openServiceJournal();
    void recordJob(const std::string &name, const JobRecord &rec);
    void scanSpool();
    void runNextJob();
    bool writeSnapshot(bool final_snapshot);
    void idleSleep();
    bool backoffSleep(const std::string &name, unsigned attempt);

    ServeOptions opts;
    ProgramCache programs;

    campaign::JournalWriter journal; ///< <state>/serve.jrn
    std::unordered_map<std::string, JobRecord> recorded;

    std::deque<JobSpec> queue;
    std::unordered_set<std::string> queuedNames;
    std::unordered_set<std::string> warnedFiles;
    std::string currentJob;

    uint64_t startNs = 0;
    uint64_t admitted = 0;
    uint64_t doneJobs = 0;
    uint64_t failedJobs = 0;
    uint64_t quarantinedJobs = 0;
    uint64_t retriedJobs = 0;
    uint64_t resumedJobs = 0;
    uint64_t deferrals = 0;
    bool inFlight = false;
    bool anyMismatch = false;
    bool anyDegraded = false;
    bool snapshotWarned = false;
};

} // namespace nvmr::serve

#endif // NVMR_SERVE_SERVICE_HH
