#include "serve/service.hh"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "campaign/sig.hh"
#include "common/bytes.hh"
#include "common/exitcodes.hh"
#include "common/fsutil.hh"
#include "common/log.hh"
#include "obs/heartbeat.hh"
#include "obs/json.hh"
#include "par/par.hh"

namespace nvmr::serve
{

namespace
{

constexpr const char *kServiceSpec = "serve|v1";
constexpr const char *kServiceTool = "nvmr_serve";

/** Coarse per-cell working-set estimate for the resident-bytes
 *  backpressure knob (journal payloads + result buffers). */
constexpr uint64_t kBytesPerCellEstimate = 4096;

uint64_t
steadyNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
jobKey(const std::string &name)
{
    return campaign::fnv1a("job:" + name);
}

} // namespace

std::string
encodeJobRecord(const std::string &name, uint64_t hash,
                uint8_t status, unsigned attempts, int result_code,
                const std::string &reason)
{
    ByteWriter w;
    w.str(name);
    w.u64(hash);
    w.u8(status);
    w.u32(attempts);
    w.u32(static_cast<uint32_t>(result_code));
    w.str(reason);
    return w.take();
}

bool
decodeJobRecord(const std::string &payload, std::string &name,
                uint64_t &hash, uint8_t &status, unsigned &attempts,
                int &result_code, std::string &reason)
{
    ByteReader r(payload);
    name = r.str();
    hash = r.u64();
    status = r.u8();
    attempts = r.u32();
    result_code = static_cast<int>(r.u32());
    reason = r.str();
    return r.ok() && r.atEnd();
}

namespace
{

/**
 * Watches one job attempt from a side thread: arms the host
 * wall-clock deadline (already doubled for the attempt by the
 * caller) and, once a drain signal is pending, the grace budget --
 * either expiring sets the shared cancel flag, which the simulator
 * polls at low cadence (RunOptions::cancel). Arming the grace logs
 * one stderr line, so an operator (or a test) can see the first
 * signal was handled before sending a second.
 */
class DeadlineMonitor
{
  public:
    DeadlineMonitor(std::atomic<bool> &cancel_flag,
                    uint64_t deadline_ms, uint64_t grace_ms)
        : cancel(cancel_flag), deadlineMs(deadline_ms),
          graceMs(grace_ms)
    {
        watcher = std::thread(&DeadlineMonitor::loop, this);
    }

    ~DeadlineMonitor() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> g(mutex);
            if (stopping)
                return;
            stopping = true;
        }
        cv.notify_all();
        watcher.join();
    }

    /** The wall-clock deadline (not the drain grace) fired. */
    bool
    deadlineFired() const
    {
        return fired.load(std::memory_order_relaxed);
    }

  private:
    void
    loop()
    {
        using clock = std::chrono::steady_clock;
        auto start = clock::now();
        std::optional<clock::time_point> deadline;
        if (deadlineMs)
            deadline = start + std::chrono::milliseconds(deadlineMs);
        std::optional<clock::time_point> graceEnd;
        std::unique_lock<std::mutex> lk(mutex);
        while (!stopping) {
            cv.wait_for(lk, std::chrono::milliseconds(50));
            if (stopping)
                return;
            auto now = clock::now();
            if (deadline && now >= *deadline) {
                fired.store(true, std::memory_order_relaxed);
                cancel.store(true, std::memory_order_relaxed);
            }
            if (campaign::interruptRequested()) {
                if (!graceEnd) {
                    graceEnd =
                        now + std::chrono::milliseconds(graceMs);
                    // warn, not inform: the drain must show in a
                    // quiet log too (a second signal force-exits).
                    warn("serve: drain requested; in-flight job has ",
                         graceMs, " ms grace");
                } else if (now >= *graceEnd)
                    cancel.store(true, std::memory_order_relaxed);
            }
        }
    }

    std::atomic<bool> &cancel;
    std::atomic<bool> fired{false};
    uint64_t deadlineMs;
    uint64_t graceMs;
    std::mutex mutex;
    std::condition_variable cv;
    bool stopping = false;
    std::thread watcher;
};

} // namespace

Service::Service(ServeOptions opts_) : opts(std::move(opts_))
{
    if (opts.stateDir.empty())
        opts.stateDir = opts.spoolDir + "/.nvmr_serve";
    startNs = steadyNowNs();
}

Service::~Service() = default;

void
Service::openServiceJournal()
{
    std::string path = opts.stateDir + "/serve.jrn";
    uint64_t hash = campaign::fnv1a(kServiceSpec);
    if (opts.resume) {
        campaign::JournalContents contents =
            campaign::loadJournal(path);
        if (contents.error.empty() && contents.tool == kServiceTool &&
            contents.configHash == hash) {
            for (const auto &[key, payload] : contents.cells) {
                (void)key;
                std::string name, reason;
                uint64_t jhash = 0;
                uint8_t status = 0;
                unsigned attempts = 0;
                int rc = 0;
                if (!decodeJobRecord(payload, name, jhash, status,
                                     attempts, rc, reason))
                    continue; // unreadable: treat as never recorded
                JobRecord rec;
                rec.hash = jhash;
                rec.status = status;
                rec.attempts = attempts;
                rec.resultCode = rc;
                rec.reason = reason;
                recorded[name] = rec;
                if (rc == kExitMismatch)
                    anyMismatch = true;
                if (status != 0 || rc == kExitDegraded)
                    anyDegraded = true;
            }
            if (contents.truncatedTail)
                warn("serve: dropped a torn service-journal tail");
            inform("serve: resumed ", recorded.size(),
                   " recorded job(s) from ", path);
            journal.openResume(path, contents.validBytes, hash,
                               kServiceTool);
            return;
        }
        if (!contents.error.empty())
            warn("serve: cannot resume service journal (",
                 contents.error, "); starting fresh");
        else
            warn("serve: service journal belongs to a different "
                 "service config; starting fresh");
    }
    journal.openFresh(path, hash, kServiceTool);
}

void
Service::recordJob(const std::string &name, const JobRecord &rec)
{
    recorded[name] = rec;
    // Journal I/O faults degrade (warn once + backoff re-probe)
    // instead of killing the daemon; the run still exits 3.
    journal.append(campaign::RecordType::Cell, jobKey(name),
                   encodeJobRecord(name, rec.hash, rec.status,
                                   rec.attempts, rec.resultCode,
                                   rec.reason));
}

void
Service::scanSpool()
{
    DIR *dir = ::opendir(opts.spoolDir.c_str());
    if (!dir) {
        if (warnedFiles.insert("<spool>").second)
            warn("serve: cannot open spool directory ",
                 opts.spoolDir);
        return;
    }
    std::vector<std::string> names;
    while (struct dirent *ent = ::readdir(dir)) {
        std::string fname = ent->d_name;
        if (fname.size() <= 4 ||
            fname.compare(fname.size() - 4, 4, ".job") != 0)
            continue;
        names.push_back(fname.substr(0, fname.size() - 4));
    }
    ::closedir(dir);
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        if (queuedNames.count(name))
            continue;
        std::string path = opts.spoolDir + "/" + name + ".job";
        JobSpec spec;
        std::string error;
        bool parsed = parseJobFile(path, name, spec, error);
        auto it = recorded.find(name);
        if (it != recorded.end() &&
            it->second.hash == spec.contentHash)
            continue; // already served this exact content
        if (!parsed) {
            // Degraded mode: one bad spool file is one failed job,
            // warned once, never a dead daemon.
            if (warnedFiles.insert(name).second)
                warn("serve: bad job file ", path, ": ", error);
            JobRecord rec;
            rec.hash = spec.contentHash;
            rec.status = 1;
            rec.reason = error;
            rec.resultCode = kExitUsage;
            recordJob(name, rec);
            ++failedJobs;
            anyDegraded = true;
            continue;
        }
        // Backpressure: defer, never drop -- the next scan retries.
        if (queue.size() >= opts.maxQueuedJobs) {
            ++deferrals;
            continue;
        }
        uint64_t estimate =
            spec.cellCount() * kBytesPerCellEstimate;
        if (!queue.empty() &&
            programs.residentBytes() + estimate >
                opts.maxResidentBytes) {
            ++deferrals;
            continue;
        }
        queue.push_back(std::move(spec));
        queuedNames.insert(name);
        ++admitted;
    }
}

bool
Service::backoffSleep(const std::string &name, unsigned attempt)
{
    Backoff b = opts.retryBackoff;
    b.seed ^= campaign::fnv1a(name);
    uint64_t ns = b.delayNs(attempt);
    uint64_t slept = 0;
    while (slept < ns) {
        if (campaign::interruptRequested())
            return false;
        uint64_t chunk = std::min<uint64_t>(ns - slept, 50'000'000);
        std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
        slept += chunk;
    }
    return !campaign::interruptRequested();
}

void
Service::runNextJob()
{
    JobSpec spec = std::move(queue.front());
    queue.pop_front();
    queuedNames.erase(spec.name);

    std::string jrnPath =
        opts.stateDir + "/jrn/" + spec.name + ".jrn";
    std::string outDir = opts.stateDir + "/out";

    currentJob = spec.name;
    inFlight = true;
    writeSnapshot(false);

    JobOutcome outcome;
    unsigned attempt = 0;
    for (;; ++attempt) {
        std::atomic<bool> cancel{false};

        JobRunOptions ropts;
        ropts.journalPath = jrnPath;
        ropts.outDir = outDir;
        ropts.cancel = &cancel;
        // The campaign layer fatal()s on an untrusted resume; decide
        // here instead so a stale or foreign journal means a fresh
        // start, not a dead daemon.
        campaign::JournalContents contents =
            campaign::loadJournal(jrnPath);
        ropts.resume = contents.error.empty() &&
                       contents.tool == kServiceTool &&
                       contents.configHash ==
                           campaign::fnv1a(spec.configSpec());

        // Per-job liveness: heartbeat snapshots while the job runs,
        // final snapshot when the attempt ends (Telemetry dtor).
        std::optional<obs::Telemetry> heartbeat;
        if (opts.jobMetricsInterval > 0) {
            obs::TelemetryOptions topts;
            topts.metricsPath =
                outDir + "/" + spec.name + ".metrics.json";
            topts.intervalSecs = opts.jobMetricsInterval;
            heartbeat.emplace(kServiceTool, topts,
                              campaign::interruptRequested);
        }

        {
            DeadlineMonitor monitor(
                cancel,
                spec.deadlineMs ? spec.deadlineMs << attempt : 0,
                opts.graceMs);
            outcome = runJob(spec, ropts, programs);
        }

        if (outcome.cellsResumed > 0 && attempt == 0)
            ++resumedJobs;
        if (outcome.journalDegraded)
            anyDegraded = true;

        if (outcome.phase == JobPhase::Interrupted) {
            // Drain: checkpointed, not recorded -- the next --resume
            // re-admits and finishes it.
            inFlight = false;
            currentJob.clear();
            return;
        }
        if (outcome.phase == JobPhase::Cancelled) {
            if (attempt < spec.retries) {
                ++retriedJobs;
                inform("serve: job ", spec.name,
                       " missed its deadline (attempt ", attempt + 1,
                       "); retrying with doubled budget");
                if (backoffSleep(spec.name, attempt))
                    continue;
                inFlight = false;
                currentJob.clear();
                return; // drain arrived mid-backoff
            }
            JobRecord rec;
            rec.hash = spec.contentHash;
            rec.status = 2;
            rec.attempts = attempt + 1;
            rec.resultCode = kExitDegraded;
            rec.reason = "deadline exceeded after " +
                         std::to_string(attempt + 1) + " attempt(s)";
            recordJob(spec.name, rec);
            warn("serve: quarantined job ", spec.name, ": ",
                 rec.reason);
            ++quarantinedJobs;
            anyDegraded = true;
            break;
        }

        // Complete (ok, mismatch, or degraded).
        JobRecord rec;
        rec.hash = spec.contentHash;
        rec.attempts = attempt + 1;
        rec.resultCode = outcome.resultCode;
        if (!outcome.failReason.empty() ||
            outcome.resultCode == kExitMismatch) {
            rec.status = 1;
            rec.reason = outcome.failReason.empty()
                             ? "mismatch"
                             : outcome.failReason;
            ++failedJobs;
            if (outcome.resultCode == kExitMismatch)
                anyMismatch = true;
            else
                anyDegraded = true;
        } else {
            rec.status = 0;
            ++doneJobs;
            if (outcome.resultCode == kExitDegraded ||
                outcome.cellsQuarantined > 0)
                anyDegraded = true;
        }
        recordJob(spec.name, rec);
        break;
    }

    inFlight = false;
    currentJob.clear();
}

bool
Service::writeSnapshot(bool final_snapshot)
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", kServeSchema);
    w.kv("tool", kServiceTool);
    w.kv("pid", static_cast<uint64_t>(::getpid()));
    w.kv("final", final_snapshot);
    w.kv("draining", campaign::interruptRequested());
    w.kv("interrupted", campaign::interruptRequested());
    w.kv("uptime_seconds",
         static_cast<double>(steadyNowNs() - startNs) / 1e9);
    w.kv("spool", opts.spoolDir);
    w.kv("queue_depth", static_cast<uint64_t>(queue.size()));
    w.kv("in_flight", static_cast<uint64_t>(inFlight ? 1 : 0));
    if (currentJob.empty()) {
        w.key("current_job");
        w.valueNull();
    } else {
        w.kv("current_job", currentJob);
    }
    w.kv("deferrals", deferrals);
    w.kv("resident_bytes", programs.residentBytes());
    w.key("jobs");
    w.beginObject();
    w.kv("admitted", admitted);
    w.kv("done", doneJobs);
    w.kv("failed", failedJobs);
    w.kv("quarantined", quarantinedJobs);
    w.kv("retried", retriedJobs);
    w.kv("resumed", resumedJobs);
    w.endObject();
    w.endObject();

    std::string err;
    if (!atomicWriteFile(opts.stateDir + "/serve.json", w.str(),
                         &err)) {
        // Snapshot loss is a liveness problem, not a correctness
        // one: warn once and keep serving.
        if (!snapshotWarned)
            warn("serve: cannot write service snapshot: ", err);
        snapshotWarned = true;
        return false;
    }
    return true;
}

void
Service::idleSleep()
{
    uint64_t slept = 0;
    uint64_t total = opts.pollMs * 1'000'000ull;
    while (slept < total && !campaign::interruptRequested()) {
        uint64_t chunk =
            std::min<uint64_t>(total - slept, 100'000'000ull);
        std::this_thread::sleep_for(std::chrono::nanoseconds(chunk));
        slept += chunk;
    }
}

int
Service::run()
{
    if (!makeDirs(opts.stateDir) ||
        !makeDirs(opts.stateDir + "/jrn") ||
        !makeDirs(opts.stateDir + "/out"))
        fatal("serve: cannot create state directory ",
              opts.stateDir);
    if (opts.maxInflightCells > 0) {
        unsigned width = static_cast<unsigned>(std::min<uint64_t>(
            opts.maxInflightCells, par::globalJobs()));
        par::setGlobalJobs(width ? width : 1);
    }
    openServiceJournal();
    writeSnapshot(false);

    while (!campaign::interruptRequested()) {
        scanSpool();
        if (queue.empty()) {
            writeSnapshot(false);
            if (opts.once || campaign::interruptRequested())
                break;
            idleSleep();
            continue;
        }
        runNextJob();
        writeSnapshot(false);
    }

    // Graceful drain: admission has stopped, the in-flight job (if
    // any) was checkpointed above; flush the final snapshot and exit
    // through the ladder.
    if (journal.everDegraded())
        anyDegraded = true;
    if (!writeSnapshot(true))
        anyDegraded = true;
    journal.close();
    if (anyMismatch)
        return kExitMismatch;
    if (anyDegraded)
        return kExitDegraded;
    return kExitOk;
}

} // namespace nvmr::serve
