#include "serve/job.hh"

#include <climits>
#include <cmath>
#include <cstdio>

#include "campaign/journal.hh"
#include "check/fuzzcases.hh"
#include "check/repro.hh"
#include "obs/json.hh"
#include "workloads/workloads.hh"

namespace nvmr::serve
{

namespace
{

constexpr int kMaxTraces = 10; ///< HarvestTrace::standardSet's size
constexpr uint64_t kMaxIterations = 1ull << 32;
constexpr uint64_t kMaxBaseSeed = ~0ull >> 1;

std::string
joinNames(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items) {
        if (!out.empty())
            out += ',';
        out += s;
    }
    return out;
}

/** Non-fatal workload validation: the registered set plus the hidden
 *  non-terminating "spin" (used to exercise deadline/quarantine
 *  paths; workloads/workloads.cc). */
bool
validWorkloadName(const std::string &name)
{
    if (name == "spin")
        return true;
    for (const WorkloadInfo &w : allWorkloads())
        if (w.name == name)
            return true;
    return false;
}

bool
wholeNumber(const JsonValue &v, uint64_t max, uint64_t &out,
            std::string &error, const std::string &key)
{
    if (v.kind != JsonValue::Kind::Number || v.num < 0 ||
        v.num != std::floor(v.num) ||
        v.num > static_cast<double>(max)) {
        error = "key '" + key + "' must be a whole number in [0, " +
                std::to_string(max) + "]";
        return false;
    }
    out = static_cast<uint64_t>(v.num);
    return true;
}

bool
stringList(const JsonValue &v, std::vector<std::string> &out,
           std::string &error, const std::string &key)
{
    if (!v.isArray()) {
        error = "key '" + key + "' must be an array of strings";
        return false;
    }
    out.clear();
    for (const JsonValue &e : v.arr) {
        if (e.kind != JsonValue::Kind::String) {
            error = "key '" + key + "' must be an array of strings";
            return false;
        }
        out.push_back(e.str);
    }
    return true;
}

} // namespace

std::string
checkJob(JobSpec &job)
{
    if (job.type == JobType::Fuzz) {
        const FuzzParams &fp = job.fuzz;
        if (fp.iterations < 1 || fp.iterations > kMaxIterations)
            return "iterations must be a whole number in [1, " +
                   std::to_string(kMaxIterations) + "], got " +
                   std::to_string(fp.iterations);
        if (fp.baseSeed > kMaxBaseSeed)
            return "base seed must be at most " +
                   std::to_string(kMaxBaseSeed) + ", got " +
                   std::to_string(fp.baseSeed);
        return "";
    }
    SweepParams &sp = job.sweep;
    if (sp.workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            sp.workloads.push_back(w.name);
    for (const std::string &w : sp.workloads)
        if (!validWorkloadName(w))
            return "unknown workload '" + w + "'";
    ArchKind arch;
    for (const std::string &a : sp.archs)
        if (!archKindFromName(a, arch))
            return "unknown architecture '" + a +
                   "' (valid: ideal, clank, clank_original, task, "
                   "nvmr, hoop)";
    PolicyKind policy;
    for (const std::string &p : sp.policies)
        if (!policyKindFromName(p, policy) ||
            policy == PolicyKind::Spendthrift)
            return "invalid policy '" + p +
                   "' (valid: jit, watchdog, none; spendthrift needs "
                   "offline training, see nvmr_train)";
    if (sp.archs.empty() || sp.policies.empty() || sp.caps.empty())
        return "archs, policies and caps must be non-empty";
    for (double f : sp.caps)
        if (!std::isfinite(f) || f <= 0) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%g", f);
            return std::string("caps must be finite positive "
                               "capacitances in farads, got ") +
                   buf;
        }
    if (sp.traces < 1 || sp.traces > kMaxTraces)
        return "traces must be a whole number in [1, " +
               std::to_string(kMaxTraces) + "]";
    return "";
}

std::string
JobSpec::configSpec() const
{
    // `engine` is deliberately absent: both engines produce
    // bit-identical per-cell results, so a journal written under one
    // engine resumes cleanly under the other.
    if (type == JobType::Fuzz) {
        std::string spec =
            "fuzz|iterations=" + std::to_string(fuzz.iterations) +
            "|base_seed=" + std::to_string(fuzz.baseSeed) +
            "|faults=" + std::to_string(fuzz.faults ? 1 : 0) +
            "|oracle=" + std::to_string(fuzz.oracle ? 1 : 0);
        spec += "|watchdog_cycles=" + std::to_string(watchdogCycles);
        spec += "|watchdog_retries=" +
                std::to_string(watchdogRetries);
        return spec;
    }
    std::string spec = "sweep|traces=" +
                       std::to_string(sweep.traces) +
                       "|archs=" + joinNames(sweep.archs) +
                       "|policies=" + joinNames(sweep.policies);
    spec += "|caps=";
    for (size_t i = 0; i < sweep.caps.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                      sweep.caps[i]);
        spec += buf;
    }
    spec += "|workloads=" + joinNames(sweep.workloads);
    spec += "|watchdog_cycles=" + std::to_string(watchdogCycles);
    spec += "|watchdog_retries=" + std::to_string(watchdogRetries);
    return spec;
}

uint64_t
JobSpec::cellCount() const
{
    if (type == JobType::Fuzz)
        return fuzz.iterations * fuzzCaseCount();
    return static_cast<uint64_t>(sweep.workloads.size()) *
           sweep.archs.size() * sweep.policies.size() *
           sweep.caps.size();
}

bool
parseJobText(const std::string &text, const std::string &name,
             JobSpec &out, std::string &error)
{
    out = JobSpec{};
    out.name = name;
    out.contentHash = campaign::fnv1a(text);

    JsonValue doc;
    if (!jsonParse(text, doc, &error))
        return false;
    if (!doc.isObject()) {
        error = "job document must be a JSON object";
        return false;
    }
    if (doc.stringAt("schema") != kJobSchema) {
        error = "schema must be \"" + std::string(kJobSchema) + "\"";
        return false;
    }
    std::string type = doc.stringAt("type");
    if (type == "sweep") {
        out.type = JobType::Sweep;
    } else if (type == "fuzz") {
        out.type = JobType::Fuzz;
    } else {
        error = "type must be \"sweep\" or \"fuzz\"";
        return false;
    }

    uint64_t u = 0;
    for (const auto &[key, v] : doc.obj) {
        if (key == "schema" || key == "type")
            continue;
        if (key == "deadline_ms") {
            if (!wholeNumber(v, 1ull << 40, out.deadlineMs, error,
                             key))
                return false;
        } else if (key == "retries") {
            if (!wholeNumber(v, 100, u, error, key))
                return false;
            out.retries = static_cast<unsigned>(u);
        } else if (key == "watchdog_cycles") {
            if (!wholeNumber(v, 1ull << 50, out.watchdogCycles,
                             error, key))
                return false;
        } else if (key == "watchdog_retries") {
            if (!wholeNumber(v, 100, u, error, key))
                return false;
            out.watchdogRetries = static_cast<unsigned>(u);
        } else if (key == "engine") {
            if (v.kind != JsonValue::Kind::String ||
                !engineKindFromName(v.str, out.engine)) {
                error = "key 'engine' must be \"interp\", "
                        "\"threaded\" or \"default\"";
                return false;
            }
        } else if (key == "workloads" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.workloads, error, key))
                return false;
        } else if (key == "archs" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.archs, error, key))
                return false;
        } else if (key == "policies" && out.type == JobType::Sweep) {
            if (!stringList(v, out.sweep.policies, error, key))
                return false;
        } else if (key == "caps" && out.type == JobType::Sweep) {
            if (!v.isArray()) {
                error = "key 'caps' must be an array of numbers";
                return false;
            }
            out.sweep.caps.clear();
            for (const JsonValue &e : v.arr) {
                if (e.kind != JsonValue::Kind::Number) {
                    error = "key 'caps' must be an array of numbers";
                    return false;
                }
                out.sweep.caps.push_back(e.num);
            }
        } else if (key == "traces" && out.type == JobType::Sweep) {
            if (!wholeNumber(v, INT_MAX, u, error, key))
                return false;
            out.sweep.traces = static_cast<int>(u);
        } else if (key == "iterations" && out.type == JobType::Fuzz) {
            if (!wholeNumber(v, kMaxBaseSeed, out.fuzz.iterations,
                             error, key))
                return false;
        } else if (key == "base_seed" && out.type == JobType::Fuzz) {
            if (!wholeNumber(v, kMaxBaseSeed, out.fuzz.baseSeed,
                             error, key))
                return false;
        } else if (key == "faults" && out.type == JobType::Fuzz) {
            if (v.kind != JsonValue::Kind::Bool) {
                error = "key 'faults' must be a boolean";
                return false;
            }
            out.fuzz.faults = v.boolean;
        } else if (key == "oracle" && out.type == JobType::Fuzz) {
            if (v.kind != JsonValue::Kind::Bool) {
                error = "key 'oracle' must be a boolean";
                return false;
            }
            out.fuzz.oracle = v.boolean;
        } else {
            error = "unknown key '" + key + "' for a " + type +
                    " job";
            return false;
        }
    }

    error = checkJob(out);
    return error.empty();
}

bool
parseJobFile(const std::string &path, const std::string &name,
             JobSpec &out, std::string &error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    std::string text;
    char buf[1 << 14];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, got);
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) {
        error = "read error on " + path;
        return false;
    }
    return parseJobText(text, name, out, error);
}

} // namespace nvmr::serve
