#include "campaign/campaign.hh"

#include <memory>

#include "campaign/sig.hh"
#include "common/bytes.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/prof.hh"

namespace nvmr::campaign
{

std::string
quarantinePayload(unsigned attempts, const std::string &reason)
{
    ByteWriter w;
    w.u32(attempts);
    w.str(reason);
    return w.take();
}

bool
parseQuarantinePayload(const std::string &payload, unsigned &attempts,
                       std::string &reason)
{
    ByteReader r(payload);
    attempts = r.u32();
    reason = r.str();
    return r.ok() && r.atEnd();
}

Campaign::Campaign(std::string tool_, const std::string &config_spec,
                   Options opts_)
    : tool(std::move(tool_)), configHash(fnv1a(config_spec)),
      opts(std::move(opts_))
{
    if (opts.journalPath.empty()) {
        fatal_if(opts.resume, "--resume needs a journal path");
        return;
    }
    if (!opts.resume) {
        writer.openFresh(opts.journalPath, configHash, tool);
        return;
    }

    JournalContents contents = loadJournal(opts.journalPath);
    // Refusals are usage errors: resuming from a journal we cannot
    // trust would silently merge results from a different campaign.
    fatal_if(!contents.error.empty(), "cannot resume: ",
             contents.error);
    fatal_if(contents.tool != tool, "cannot resume: journal was "
             "written by ", contents.tool, ", not ", tool);
    fatal_if(contents.configHash != configHash,
             "cannot resume: journal config hash ",
             contents.configHash, " does not match this campaign (",
             configHash, "); the resumed command line must request "
             "the identical campaign");
    if (contents.truncatedTail)
        warn("resume: dropped a torn/corrupt journal tail; the "
             "affected cell(s) will be re-run");
    inform("resume: ", contents.cells.size(), " completed and ",
           contents.quarantined.size(),
           " quarantined cell(s) loaded from ", opts.journalPath);
    resumedCellMap = std::move(contents.cells);
    resumedQuarantineMap = std::move(contents.quarantined);
    // Hand the header identity along so a degraded-mode re-probe can
    // rebuild the file from scratch if it has to.
    writer.openResume(opts.journalPath, contents.validBytes,
                      configHash, tool);
}

bool
Campaign::cellDone(const std::string &stage, uint64_t index) const
{
    uint64_t key = cellKey(stage, index);
    return resumedCellMap.count(key) != 0 ||
           resumedQuarantineMap.count(key) != 0;
}

std::vector<CellResult>
Campaign::runStage(const std::string &stage, uint64_t n,
                   const CellBody &body, par::Progress *progress)
{
    std::vector<CellResult> out(n);

    // Host-side telemetry (obs/metrics.hh): detached = one null
    // check; attached, it observes wall-clock phases and progress
    // counts without ever touching results or scheduling.
    obs::MetricsRegistry *m = obs::metrics();
    if (m)
        m->gaugeAdd(obs::Gauge::CellsTotal, static_cast<int64_t>(n));
    uint64_t resumedBefore = resumedCount;

    // Serve journaled cells first and collect the fresh work-list.
    std::vector<uint64_t> fresh;
    fresh.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        uint64_t key = cellKey(stage, i);
        auto cell = resumedCellMap.find(key);
        if (cell != resumedCellMap.end()) {
            out[i].status = CellStatus::Done;
            out[i].fromJournal = true;
            out[i].payload = cell->second;
            ++resumedCount;
            continue;
        }
        auto quar = resumedQuarantineMap.find(key);
        if (quar != resumedQuarantineMap.end()) {
            out[i].status = CellStatus::Quarantined;
            out[i].fromJournal = true;
            unsigned attempts = 0;
            std::string reason;
            if (!parseQuarantinePayload(quar->second, attempts,
                                        reason))
                reason = "quarantined (unreadable record)";
            out[i].attempts = attempts;
            out[i].payload = reason;
            ++resumedCount;
            continue;
        }
        fresh.push_back(i);
    }
    if (m && resumedCount > resumedBefore)
        m->add(obs::Counter::CellsResumed,
               resumedCount - resumedBefore);
    uint64_t stageStartNs = m ? m->nowNs() : 0;

    std::unique_ptr<par::Progress> ownProgress;
    if (!progress && !fresh.empty()) {
        ownProgress = std::make_unique<par::Progress>(
            tool + ":" + stage, fresh.size());
        progress = ownProgress.get();
    }

    unsigned max_attempts = 1 + opts.watchdogRetries;
    par::parallelFor(
        fresh.size(),
        [&](size_t f) {
            uint64_t i = fresh[f];
            CellResult &res = out[i];
            // Interrupt or campaign-scoped cancel: leave the cell
            // Skipped so the journal stays honest and a resume
            // re-runs it.
            if (interruptRequested() || cancelled())
                return;
            uint64_t cellStartNs = 0;
            if (m) {
                cellStartNs = m->nowNs();
                // Queue latency: stage dispatch -> this cell's start.
                m->samplePhaseNs(obs::Phase::Queue,
                                 cellStartNs - stageStartNs);
            }
            for (unsigned attempt = 0;; ++attempt) {
                CellContext ctx;
                ctx.index = i;
                ctx.attempt = attempt;
                ctx.cancel = opts.cancelFlag;
                if (opts.watchdogCycles)
                    ctx.budgetCycles = opts.watchdogCycles
                                       << attempt;
                res.attempts = attempt + 1;
                uint64_t attemptStartNs = m ? m->nowNs() : 0;
                auto endAttempt = [&]() {
                    if (m)
                        m->recordSpan(attempt ? obs::Phase::Retry
                                              : obs::Phase::Run,
                                      attemptStartNs, m->nowNs());
                };
                try {
                    std::optional<std::string> payload = body(ctx);
                    endAttempt();
                    if (payload) {
                        res.status = CellStatus::Done;
                        res.payload = std::move(*payload);
                        writer.append(RecordType::Cell,
                                      cellKey(stage, i),
                                      res.payload);
                        if (m) {
                            m->inc(obs::Counter::CellsDone);
                            m->noteCell(
                                stage + "/" + std::to_string(i),
                                m->nowNs() - cellStartNs);
                        }
                    } else {
                        res.status = CellStatus::Failed;
                        if (m)
                            m->inc(obs::Counter::CellsFailed);
                    }
                    return;
                } catch (const CellCancelled &) {
                    // A cancelled attempt is indistinguishable from
                    // one that never ran: Skipped, not journaled.
                    endAttempt();
                    return;
                } catch (const CellTimeout &t) {
                    endAttempt();
                    if (attempt + 1 < max_attempts &&
                        !interruptRequested() && !cancelled()) {
                        if (m)
                            m->inc(obs::Counter::CellsRetried);
                        continue;
                    }
                    res.status = CellStatus::Quarantined;
                    res.payload = t.reason;
                    writer.append(
                        RecordType::Quarantine, cellKey(stage, i),
                        quarantinePayload(res.attempts, t.reason));
                    if (m)
                        m->inc(obs::Counter::CellsQuarantined);
                    return;
                }
            }
        },
        0, progress);
    if (ownProgress)
        ownProgress->finish();

    // Quarantine bookkeeping in canonical index order, whether the
    // cells were quarantined this run or replayed from the journal.
    for (uint64_t i = 0; i < n; ++i) {
        if (out[i].status != CellStatus::Quarantined)
            continue;
        QuarantineEntry q;
        q.stage = stage;
        q.index = i;
        q.attempts = out[i].attempts;
        q.reason = out[i].payload;
        quarantineList.push_back(std::move(q));
    }
    return out;
}

bool
Campaign::interrupted() const
{
    return interruptRequested();
}

bool
Campaign::cancelled() const
{
    return opts.cancelFlag &&
           opts.cancelFlag->load(std::memory_order_relaxed);
}

bool
Campaign::journalDegraded() const
{
    return writer.everDegraded();
}

const std::string &
Campaign::journalError() const
{
    return writer.error();
}

std::string
Campaign::quarantineJson(
    const std::function<std::string(const QuarantineEntry &)>
        &describe) const
{
    JsonWriter w;
    w.beginArray();
    for (const QuarantineEntry &q : quarantineList) {
        w.beginObject();
        w.kv("stage", q.stage);
        w.kv("index", q.index);
        if (describe)
            w.kv("cell", describe(q));
        w.kv("attempts", static_cast<uint64_t>(q.attempts));
        w.kv("reason", q.reason);
        w.endObject();
    }
    w.endArray();
    return w.str();
}

int
Campaign::exitCode(int result_code) const
{
    if (interrupted())
        return interruptExitCode();
    if (result_code != kExitOk)
        return result_code;
    if (!quarantineList.empty() || journalDegraded())
        return kExitDegraded;
    return kExitOk;
}

} // namespace nvmr::campaign
