/**
 * @file
 * Operator-facing campaign report: render a `--metrics` heartbeat
 * snapshot (nvmr-metrics-v1), and optionally the campaign journal and
 * the run manifest, into one human-readable summary -- progress, ETA,
 * throughput, worker utilization, phase-latency histograms and the
 * slowest cells.
 *
 *     nvmr_report metrics.json
 *     nvmr_report metrics.json --journal sweep.jrn
 *     nvmr_report metrics.json --manifest sweep.stats.json
 *     watch -n 5 nvmr_report metrics.json      # live campaign view
 *     nvmr_report spool/.nvmr_serve/serve.json # nvmr_serve health
 *
 * The input's `schema` tag selects the renderer: `nvmr-metrics-v1`
 * heartbeats get the full campaign view below; `nvmr-serve-v1`
 * service snapshots get queue depth, in-flight job, backpressure
 * deferrals and the per-status job counters.
 *
 * The snapshot file is written atomically by the heartbeat
 * (docs/observability.md), so reading it mid-campaign always yields a
 * complete document. Exit codes follow docs/operations.md: 0 on a
 * rendered report, 2 on usage errors or an unparseable input file.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "common/barchart.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "obs/json.hh"

using namespace nvmr;

namespace
{

void
usage()
{
    std::puts(
        "nvmr_report: render campaign telemetry for operators\n"
        "\n"
        "  nvmr_report METRICS.json [--journal FILE] "
        "[--manifest FILE]\n"
        "\n"
        "  METRICS.json      nvmr-metrics-v1 heartbeat snapshot\n"
        "                    (written by any tool's --metrics flag)\n"
        "                    or an nvmr-serve-v1 service snapshot\n"
        "                    (nvmr_serve's <state>/serve.json)\n"
        "  --journal FILE    also summarize the campaign journal\n"
        "  --manifest FILE   also summarize the --stats-json "
        "manifest\n");
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        return false;
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return is.good() || is.eof();
}

/** Parse one JSON document file or die with exit 2. */
JsonValue
loadJsonOrDie(const std::string &path, const char *what)
{
    std::string text;
    fatal_if(!readFile(path, text), "cannot read ", what, " ", path);
    JsonValue doc;
    std::string error;
    fatal_if(!jsonParse(text, doc, &error), path, " is not valid ",
             what, " JSON: ", error);
    return doc;
}

/** Human duration: ns -> "1.24 ms" / "3.5 s" / "2h 14m". */
std::string
fmtNs(double ns)
{
    char buf[64];
    if (ns < 1e3)
        std::snprintf(buf, sizeof(buf), "%.0f ns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof(buf), "%.2f us", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof(buf), "%.2f ms", ns / 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.2f s", ns / 1e9);
    return buf;
}

std::string
fmtSecs(double secs)
{
    char buf[64];
    if (secs < 120) {
        std::snprintf(buf, sizeof(buf), "%.1f s", secs);
    } else if (secs < 7200) {
        std::snprintf(buf, sizeof(buf), "%.0fm %02.0fs", secs / 60,
                      std::fmod(secs, 60.0));
    } else {
        std::snprintf(buf, sizeof(buf), "%.0fh %02.0fm", secs / 3600,
                      std::fmod(secs, 3600.0) / 60);
    }
    return buf;
}

std::string
fmtCount(double v)
{
    char buf[64];
    if (v >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
    else if (v >= 1e4)
        std::snprintf(buf, sizeof(buf), "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
}

/** Die (exit 2) unless the snapshot carries every schema-required
 *  top-level key; a torn or foreign file should not half-render. */
void
checkSnapshotShape(const JsonValue &doc, const std::string &path)
{
    fatal_if(doc.stringAt("schema") != "nvmr-metrics-v1", path,
             ": schema is '", doc.stringAt("schema"),
             "', expected 'nvmr-metrics-v1' or 'nvmr-serve-v1'");
    static const char *required[] = {
        "tool",   "snapshot", "final",  "interrupted",
        "elapsed_seconds", "cells", "rates",    "eta_seconds",
        "counters", "gauges", "workers", "phases", "slowest_cells",
    };
    for (const char *key : required)
        fatal_if(!doc.find(key), path, ": snapshot is missing '", key,
                 "'");
}

void
renderSnapshot(const JsonValue &doc)
{
    const JsonValue *cells = doc.find("cells");
    const JsonValue *rates = doc.find("rates");
    double elapsed = doc.numberAt("elapsed_seconds");

    const JsonValue *final_v = doc.find("final");
    const JsonValue *intr_v = doc.find("interrupted");
    bool is_final = final_v && final_v->boolean;
    bool interrupted = intr_v && intr_v->boolean;
    std::printf("campaign: %s (pid %.0f)  snapshot #%.0f%s%s\n",
                doc.stringAt("tool").c_str(), doc.numberAt("pid"),
                doc.numberAt("snapshot"),
                is_final ? "  [final]" : "  [live]",
                interrupted ? "  [interrupted]" : "");

    double total = cells->numberAt("total");
    double done = cells->numberAt("done");
    double resumed = cells->numberAt("resumed");
    double quarantined = cells->numberAt("quarantined");
    double failed = cells->numberAt("failed");
    double remaining = cells->numberAt("remaining");
    double accounted = done + resumed + quarantined + failed;
    std::printf("progress: %.0f/%.0f cells (%.1f%%)", accounted,
                total, total > 0 ? 100.0 * accounted / total : 0.0);
    if (resumed > 0)
        std::printf(", %.0f resumed", resumed);
    if (quarantined > 0)
        std::printf(", %.0f quarantined", quarantined);
    if (failed > 0)
        std::printf(", %.0f FAILED", failed);
    std::printf("  elapsed %s\n", fmtSecs(elapsed).c_str());

    const JsonValue *eta = doc.find("eta_seconds");
    std::printf("rates:    %.2f cells/s, %s instr/s",
                rates->numberAt("cells_per_sec"),
                fmtCount(rates->numberAt("instr_per_sec")).c_str());
    if (eta && !eta->isNull() && remaining > 0)
        std::printf("  eta %s", fmtSecs(eta->num).c_str());
    std::printf("\n");

    // Occupancy: total busy time across workers over the wall clock
    // is the average number of busy workers. It is not a speedup --
    // a busy worker can run slower than a lone one on a shared host
    // -- so it is labeled as what it measures.
    const JsonValue *workers = doc.find("workers");
    double busy_total = 0;
    for (const JsonValue &w : workers->arr)
        busy_total += w.numberAt("busy_ns");
    // The workers gauge is the engine's pool width (1 when serial);
    // counting "w*" shards would report 0 for a serial campaign.
    int engine_workers = static_cast<int>(
        doc.find("gauges")->numberAt("workers"));
    if (busy_total > 0 && elapsed > 0)
        std::printf("occupancy: %.2f of %d engine worker(s) busy on "
                    "average (sum busy / elapsed)\n",
                    busy_total / 1e9 / elapsed, engine_workers);

    if (!workers->arr.empty()) {
        std::printf("\n%-10s %10s %8s %10s %10s %6s\n", "worker",
                    "tasks", "steals", "busy", "idle", "util");
        for (const JsonValue &w : workers->arr) {
            double busy = w.numberAt("busy_ns");
            double idle = w.numberAt("idle_ns");
            double util =
                busy + idle > 0 ? 100.0 * busy / (busy + idle) : 0.0;
            std::printf("%-10s %10.0f %8.0f %10s %10s %5.1f%%\n",
                        w.stringAt("label").c_str(),
                        w.numberAt("tasks"), w.numberAt("steals"),
                        fmtNs(busy).c_str(), fmtNs(idle).c_str(),
                        util);
        }
    }

    // Per-phase latency: one line of summary stats, then the log2
    // bucket histogram as a bar chart.
    for (const JsonValue &p : doc.find("phases")->arr) {
        if (p.numberAt("count") == 0)
            continue;
        std::printf("\nphase %-14s %8.0f spans  mean %-10s "
                    "p50 %-10s p99 %-10s max %s\n",
                    p.stringAt("name").c_str(), p.numberAt("count"),
                    fmtNs(p.numberAt("mean_ns")).c_str(),
                    fmtNs(p.numberAt("p50_ns")).c_str(),
                    fmtNs(p.numberAt("p99_ns")).c_str(),
                    fmtNs(p.numberAt("max_ns")).c_str());
        const JsonValue *buckets = p.find("buckets");
        if (!buckets || buckets->arr.empty())
            continue;
        BarChart chart("", 40);
        for (const JsonValue &b : buckets->arr) {
            if (b.arr.size() != 3)
                continue;
            std::string label = "<" + fmtNs(b.arr[1].num);
            chart.add(label, b.arr[2].num);
        }
        std::fputs(chart.render().c_str(), stdout);
    }

    const JsonValue *slowest = doc.find("slowest_cells");
    if (!slowest->arr.empty()) {
        std::printf("\nslowest cells:\n");
        for (const JsonValue &c : slowest->arr)
            std::printf("  %-40s %s\n", c.stringAt("cell").c_str(),
                        fmtNs(c.numberAt("dur_ns")).c_str());
    }

    const JsonValue *counters = doc.find("counters");
    double jbytes = counters->numberAt("journal_bytes");
    if (jbytes > 0)
        std::printf("\njournal:  %.0f appends, %s bytes fsync'd\n",
                    counters->numberAt("journal_appends"),
                    fmtCount(jbytes).c_str());
}

/** Shape check + render for an `nvmr-serve-v1` service snapshot
 *  (written by nvmr_serve to <state>/serve.json). Same contract as
 *  the metrics path: a missing required key is exit 2, not a
 *  half-rendered report. */
void
checkServeShape(const JsonValue &doc, const std::string &path)
{
    static const char *required[] = {
        "tool",        "pid",       "final",     "draining",
        "uptime_seconds", "spool",  "queue_depth", "in_flight",
        "deferrals",   "resident_bytes", "jobs",
    };
    for (const char *key : required)
        fatal_if(!doc.find(key), path, ": service snapshot is "
                 "missing '", key, "'");
    fatal_if(!doc.find("jobs")->isObject(), path,
             ": 'jobs' is not an object");
}

void
renderServeSnapshot(const JsonValue &doc)
{
    const JsonValue *final_v = doc.find("final");
    const JsonValue *drain_v = doc.find("draining");
    bool is_final = final_v && final_v->boolean;
    bool draining = drain_v && drain_v->boolean;
    std::printf("service:  %s (pid %.0f)%s%s\n",
                doc.stringAt("tool").c_str(), doc.numberAt("pid"),
                is_final ? "  [final]" : "  [live]",
                draining ? "  [draining]" : "");
    std::printf("spool:    %s\n", doc.stringAt("spool").c_str());
    std::printf("uptime:   %s\n",
                fmtSecs(doc.numberAt("uptime_seconds")).c_str());

    const JsonValue *cur = doc.find("current_job");
    std::printf("queue:    %.0f queued, %.0f in flight",
                doc.numberAt("queue_depth"),
                doc.numberAt("in_flight"));
    if (cur && !cur->isNull())
        std::printf(" (%s)", cur->str.c_str());
    std::printf(", %.0f deferral(s)\n", doc.numberAt("deferrals"));
    std::printf("resident: %s bytes of decoded workload images\n",
                fmtCount(doc.numberAt("resident_bytes")).c_str());

    const JsonValue *jobs = doc.find("jobs");
    std::printf("\n%-12s %8s\n", "jobs", "count");
    static const char *counters[] = {
        "admitted", "done",    "failed",
        "quarantined", "retried", "resumed",
    };
    for (const char *key : counters) {
        double v = jobs->numberAt(key);
        // FAILED/quarantined lines shout only when non-zero so a
        // healthy fleet report stays scannable.
        bool bad = v > 0 && (std::strcmp(key, "failed") == 0 ||
                             std::strcmp(key, "quarantined") == 0);
        std::printf("%-12s %8.0f%s\n", key, v,
                    bad ? "  <-- attention" : "");
    }

    if (is_final) {
        double failed = jobs->numberAt("failed");
        double quarantined = jobs->numberAt("quarantined");
        std::printf("\nfinal: service drained %s\n",
                    failed + quarantined > 0
                        ? "with failures (expect exit 3)"
                        : "clean");
    }
}

void
renderJournal(const std::string &path)
{
    campaign::JournalContents jc = campaign::loadJournal(path);
    std::printf("\njournal %s:\n", path.c_str());
    if (!jc.error.empty()) {
        std::printf("  unusable: %s\n", jc.error.c_str());
        return;
    }
    std::printf("  tool %s, config hash %016llx\n", jc.tool.c_str(),
                static_cast<unsigned long long>(jc.configHash));
    std::printf("  %zu completed cell(s), %zu quarantined, "
                "%llu valid bytes%s\n",
                jc.cells.size(), jc.quarantined.size(),
                static_cast<unsigned long long>(jc.validBytes),
                jc.truncatedTail ? " (torn tail dropped)" : "");
}

void
renderManifest(const std::string &path)
{
    JsonValue doc = loadJsonOrDie(path, "run manifest");
    std::printf("\nmanifest %s:\n", path.c_str());
    std::printf("  schema %s, tool %s\n",
                doc.stringAt("schema").c_str(),
                doc.stringAt("tool").c_str());
    const JsonValue *extras = doc.find("extras");
    if (extras && extras->isObject()) {
        for (const auto &[key, v] : extras->obj) {
            if (v.kind == JsonValue::Kind::Number)
                std::printf("  %-18s %g\n", key.c_str(), v.num);
            else if (v.kind == JsonValue::Kind::String)
                std::printf("  %-18s %s\n", key.c_str(),
                            v.str.c_str());
        }
        const JsonValue *quarantine = extras->find("quarantine");
        if (quarantine && quarantine->isArray() &&
            !quarantine->arr.empty()) {
            std::printf("  quarantined cells:\n");
            for (const JsonValue &q : quarantine->arr)
                std::printf("    %s/%.0f (%s): %s\n",
                            q.stringAt("stage").c_str(),
                            q.numberAt("index"),
                            q.stringAt("cell").c_str(),
                            q.stringAt("reason").c_str());
        }
    }
    const JsonValue *runs = doc.find("runs");
    if (runs && runs->isArray())
        std::printf("  %zu run record(s)\n", runs->arr.size());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string metrics_path;
    std::string journal_path;
    std::string manifest_path;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--journal") {
            journal_path = need(i);
        } else if (a == "--manifest") {
            manifest_path = need(i);
        } else if (a == "-h" || a == "--help") {
            usage();
            return kExitOk;
        } else if (a[0] == '-') {
            fatal("unknown argument '", a, "'");
        } else if (metrics_path.empty()) {
            metrics_path = a;
        } else {
            fatal("unexpected argument '", a, "'");
        }
    }
    fatal_if(metrics_path.empty(), "METRICS.json is required");

    JsonValue doc = loadJsonOrDie(metrics_path, "metrics snapshot");
    // One report tool, two snapshot kinds: per-campaign heartbeats
    // (nvmr-metrics-v1) and the nvmr_serve service snapshot
    // (nvmr-serve-v1). Dispatch on the schema tag.
    if (doc.stringAt("schema") == "nvmr-serve-v1") {
        checkServeShape(doc, metrics_path);
        renderServeSnapshot(doc);
    } else {
        checkSnapshotShape(doc, metrics_path);
        renderSnapshot(doc);
    }
    if (!journal_path.empty())
        renderJournal(journal_path);
    if (!manifest_path.empty())
        renderManifest(manifest_path);

    if (std::fflush(stdout) != 0 || std::ferror(stdout))
        return kExitDegraded;
    return kExitOk;
}
