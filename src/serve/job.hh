/**
 * @file
 * Job descriptions for the nvmr_serve spool (`nvmr-job-v1`). A job is
 * one JSON file dropped into the spool directory, naming a campaign
 * to run -- currently a parameter sweep (the nvmr_sweep grid) or a
 * differential fuzz (the nvmr_fuzz grid) -- plus the per-job
 * robustness knobs: a host wall-clock deadline, retry count, and the
 * deterministic watchdog budget. Parsing is strict (the obs/json.hh
 * validating parser, unknown keys rejected) and NEVER fatal: a
 * malformed spool file marks that one job failed-with-reason while
 * the service keeps serving (docs/operations.md).
 *
 * Example:
 *
 *     {
 *       "schema": "nvmr-job-v1",
 *       "type": "sweep",
 *       "workloads": ["hist"],
 *       "archs": ["clank", "nvmr"],
 *       "policies": ["jit"],
 *       "caps": [0.1],
 *       "traces": 2,
 *       "deadline_ms": 60000,
 *       "retries": 2,
 *       "engine": "threaded"
 *     }
 */

#ifndef NVMR_SERVE_JOB_HH
#define NVMR_SERVE_JOB_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hh"

namespace nvmr::serve
{

constexpr const char *kJobSchema = "nvmr-job-v1";

enum class JobType : uint8_t
{
    Sweep, ///< nvmr_sweep grid -> CSV + manifest
    Fuzz,  ///< nvmr_fuzz grid -> text log + manifest
};

/** Sweep grid (nvmr_sweep's flags, the job's sweep keys). */
struct SweepParams
{
    std::vector<std::string> workloads; ///< empty = all registered
    std::vector<std::string> archs = {"clank", "nvmr", "hoop"};
    std::vector<std::string> policies = {"jit", "watchdog"};
    std::vector<double> caps = {0.1};
    int traces = 5;
};

/** Fuzz campaign (nvmr_fuzz's arguments, the job's fuzz keys). */
struct FuzzParams
{
    uint64_t iterations = 100;
    uint64_t baseSeed = 1;
    bool faults = false;
    bool oracle = false;
};

/** One parsed spool job. */
struct JobSpec
{
    std::string name; ///< spool filename minus ".job"
    JobType type = JobType::Sweep;

    /** Host wall-clock budget per attempt, doubled per retry;
     *  0 = no deadline. */
    uint64_t deadlineMs = 0;

    /** Re-runs after a deadline-cancelled attempt before the job is
     *  quarantined (1 + retries attempts total). */
    unsigned retries = 2;

    /** Deterministic per-cell watchdog (campaign layer). */
    uint64_t watchdogCycles = 0;
    unsigned watchdogRetries = 2;

    /** Execution engine for the job's runs ("engine" key: "interp" |
     *  "threaded" | "default"). Both engines are bit-identical, so
     *  this is a host-side speed knob: it is deliberately EXCLUDED
     *  from configSpec() -- switching engines must not invalidate a
     *  resumed journal (docs/performance.md). */
    EngineKind engine = EngineKind::Default;

    SweepParams sweep;
    FuzzParams fuzz;

    /** FNV-1a of the raw spool file bytes: detects edited jobs so a
     *  resume re-runs them instead of serving stale results. */
    uint64_t contentHash = 0;

    /** Canonical config-spec string for the per-job campaign journal
     *  (everything shaping the work-list or per-cell results). */
    std::string configSpec() const;

    /** Work-list size (sweep grid cells / fuzz (program,case) pairs),
     *  used by the backpressure accounting. */
    uint64_t cellCount() const;
};

/**
 * Complete and check a job's grid, the one set of rules for a spool
 * job and for the nvmr_sweep / nvmr_fuzz command line. An empty
 * sweep workload list becomes every registered workload; then
 * workloads must be registered (or the hidden `spin`), archs and
 * policies known (spendthrift needs offline training) and non-empty,
 * caps finite, positive and non-empty, traces in [1, 10], fuzz
 * iterations in [1, 2^32] and the base seed below 2^63. Returns the
 * first violation, or "" when the job can run.
 */
std::string checkJob(JobSpec &job);

/** Parse one job document. `name` is the job name (filename minus
 *  ".job"). Returns false and fills `error` on malformed JSON, a
 *  wrong schema, unknown keys, or a grid checkJob() rejects. */
bool parseJobText(const std::string &text, const std::string &name,
                  JobSpec &out, std::string &error);

/** Read + parse a spool file (false on I/O failure too). */
bool parseJobFile(const std::string &path, const std::string &name,
                  JobSpec &out, std::string &error);

} // namespace nvmr::serve

#endif // NVMR_SERVE_JOB_HH
