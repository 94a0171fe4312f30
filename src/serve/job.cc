#include "serve/job.hh"

#include <algorithm>
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
constexpr uint64_t kMaxSchedules = UINT32_MAX;

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

// A kind's keys by value type: the field behind `key`, or null when
// the job's kind has no such key.

uint64_t *
countKey(JobSpec &job, const std::string &key)
{
    FuzzParams &f = job.fuzz;
    CrashtestParams &c = job.crashtest;
    DiffParams &d = job.diff;
    switch (job.type) {
      case JobType::Fuzz:
        return key == "iterations"  ? &f.iterations
               : key == "base_seed" ? &f.baseSeed
                                    : nullptr;
      case JobType::Crashtest:
        return key == "max_backups"     ? &c.maxBackups
               : key == "stride"        ? &c.stride
               : key == "cycle_samples" ? &c.cycleSamples
               : key == "seed"          ? &c.seed
               : key == "snap_stride"   ? &c.snapStride
               : key == "verify_fork"   ? &c.verifyFork
                                        : nullptr;
      case JobType::Diff:
        return key == "schedules" ? &d.schedules
               : key == "seed"    ? &d.seed
                                  : nullptr;
      default: return nullptr;
    }
}

bool *
flagKey(JobSpec &job, const std::string &key)
{
    switch (job.type) {
      case JobType::Fuzz:
        return key == "faults"   ? &job.fuzz.faults
               : key == "oracle" ? &job.fuzz.oracle
                                 : nullptr;
      case JobType::Crashtest:
        return key == "verbose" ? &job.crashtest.verbose : nullptr;
      case JobType::Diff:
        return key == "smoke" ? &job.diff.smoke : nullptr;
      default: return nullptr;
    }
}

std::vector<std::string> *
listKey(JobSpec &job, const std::string &key)
{
    SweepParams &s = job.sweep;
    CrashtestParams &c = job.crashtest;
    switch (job.type) {
      case JobType::Sweep:
        return key == "workloads"  ? &s.workloads
               : key == "archs"    ? &s.archs
               : key == "policies" ? &s.policies
                                   : nullptr;
      case JobType::Crashtest:
        return key == "workloads" ? &c.workloads
               : key == "archs"   ? &c.archs
                                  : nullptr;
      default: return nullptr;
    }
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

/** Fill an empty workload list with every registered workload, then
 *  check each name. */
std::string
checkWorkloads(std::vector<std::string> &workloads)
{
    if (workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            workloads.push_back(w.name);
    for (const std::string &w : workloads)
        if (!validWorkloadName(w))
            return "unknown workload '" + w + "'";
    return "";
}

std::string
checkArchs(const std::vector<std::string> &archs,
           std::initializer_list<ArchKind> refused = {})
{
    ArchKind arch;
    for (const std::string &a : archs)
        if (!archKindFromName(a, arch) ||
            std::find(refused.begin(), refused.end(), arch) !=
                refused.end())
            return "unknown architecture '" + a + "' (valid: " +
                   namesOf(kArchNames, refused) + ")";
    if (archs.empty())
        return "archs must be non-empty";
    return "";
}

std::string
checkSweep(SweepParams &sp)
{
    std::string error = checkWorkloads(sp.workloads);
    if (error.empty())
        error = checkArchs(sp.archs);
    if (!error.empty())
        return error;
    PolicyKind policy;
    for (const std::string &p : sp.policies)
        if (!policyKindFromName(p, policy) ||
            policy == PolicyKind::Spendthrift)
            return "invalid policy '" + p + "' (valid: " +
                   namesOf(kPolicyNames, {PolicyKind::Spendthrift}) +
                   "; spendthrift needs offline training, see "
                   "nvmr_train)";
    if (sp.policies.empty() || sp.caps.empty())
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
checkFuzz(const FuzzParams &fp)
{
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

std::string
checkCrashtest(CrashtestParams &cp)
{
    std::string error = checkWorkloads(cp.workloads);
    if (!error.empty())
        return error;
    for (const std::string &a : cp.archs)
        if (a == archKindName(ArchKind::Ideal))
            return "the ideal architecture relies on the perfect-JIT "
                   "assumption that power never fails unexpectedly; "
                   "injected crashes break it by construction";
    error = checkArchs(cp.archs, {ArchKind::Ideal});
    if (!error.empty())
        return error;
    if (cp.stride < 1 || cp.snapStride < 1)
        return "stride and snap_stride must be at least 1";
    return "";
}

std::string
checkDiff(DiffParams &dp)
{
    if (dp.schedules < 1 || dp.schedules > kMaxSchedules)
        return "schedules must be a whole number in [1, " +
               std::to_string(kMaxSchedules) + "], got " +
               std::to_string(dp.schedules);
    std::string error = checkArchs(dp.archs);
    if (!error.empty())
        return error;
    // Seeded bugs live in the renaming layer.
    if (dp.bug != InjectedBug::None)
        dp.archs = {archKindName(ArchKind::Nvmr)};
    return "";
}

} // namespace

std::string
checkJob(JobSpec &job)
{
    switch (job.type) {
      case JobType::Fuzz: return checkFuzz(job.fuzz);
      case JobType::Crashtest: return checkCrashtest(job.crashtest);
      case JobType::Diff: return checkDiff(job.diff);
      default: return checkSweep(job.sweep);
    }
}

std::string
JobSpec::configSpec() const
{
    // `engine` is deliberately absent: both engines produce
    // bit-identical per-cell results, so a journal written under one
    // engine resumes cleanly under the other.
    std::string spec;
    switch (type) {
      case JobType::Fuzz:
        spec = "fuzz|iterations=" + std::to_string(fuzz.iterations) +
               "|base_seed=" + std::to_string(fuzz.baseSeed) +
               "|faults=" + std::to_string(fuzz.faults ? 1 : 0) +
               "|oracle=" + std::to_string(fuzz.oracle ? 1 : 0);
        break;
      case JobType::Crashtest:
        // The stage names are part of the spec, so a journal keyed
        // by another stage layout (one census and one points stage
        // per combination) fails the config-hash check on resume
        // instead of silently re-running everything. The snapshot
        // stride shapes the journaled capture summary.
        spec = "crashtest|stages=census,points|workloads=" +
               joinNames(crashtest.workloads) +
               "|archs=" + joinNames(crashtest.archs) +
               "|max_backups=" + std::to_string(crashtest.maxBackups) +
               "|stride=" + std::to_string(crashtest.stride) +
               "|cycle_samples=" +
               std::to_string(crashtest.cycleSamples) +
               "|seed=" + std::to_string(crashtest.seed) +
               "|snap_stride=" + std::to_string(crashtest.snapStride);
        break;
      case JobType::Diff:
        spec = "diff|archs=" + joinNames(diff.archs) +
               "|schedules=" +
               std::to_string(diff.smoke ? 1 : diff.schedules) +
               "|seed=" + std::to_string(diff.seed) +
               "|bug=" + std::to_string(static_cast<int>(diff.bug)) +
               "|smoke=" + std::to_string(diff.smoke ? 1 : 0);
        break;
      default:
        spec = "sweep|traces=" + std::to_string(sweep.traces) +
               "|archs=" + joinNames(sweep.archs) +
               "|policies=" + joinNames(sweep.policies) + "|caps=";
        for (size_t i = 0; i < sweep.caps.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                          sweep.caps[i]);
            spec += buf;
        }
        spec += "|workloads=" + joinNames(sweep.workloads);
        break;
    }
    spec += "|watchdog_cycles=" + std::to_string(watchdogCycles);
    spec += "|watchdog_retries=" + std::to_string(watchdogRetries);
    return spec;
}

uint64_t
JobSpec::cellCount() const
{
    switch (type) {
      case JobType::Fuzz: return fuzz.iterations * fuzzCaseCount();
      case JobType::Crashtest:
        return static_cast<uint64_t>(crashtest.workloads.size()) *
               crashtest.archs.size();
      case JobType::Diff:
        return diff.archs.size() * (diff.smoke ? 1 : diff.schedules);
      default:
        return static_cast<uint64_t>(sweep.workloads.size()) *
               sweep.archs.size() * sweep.policies.size() *
               sweep.caps.size();
    }
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
    } else if (type == "crashtest") {
        out.type = JobType::Crashtest;
    } else if (type == "diff") {
        out.type = JobType::Diff;
    } else {
        error = "type must be \"sweep\", \"fuzz\", \"crashtest\" or "
                "\"diff\"";
        return false;
    }
    const bool sweep = out.type == JobType::Sweep;
    const bool diff = out.type == JobType::Diff;

    uint64_t u = 0;
    for (const auto &[key, v] : doc.obj) {
        if (key == "schema" || key == "type")
            continue;
        uint64_t *count = countKey(out, key);
        bool *flag = flagKey(out, key);
        std::vector<std::string> *list = listKey(out, key);
        if (count) {
            if (!wholeNumber(v, kMaxBaseSeed, *count, error, key))
                return false;
        } else if (flag) {
            if (v.kind != JsonValue::Kind::Bool) {
                error = "key '" + key + "' must be a boolean";
                return false;
            }
            *flag = v.boolean;
        } else if (list) {
            if (!stringList(v, *list, error, key))
                return false;
        } else if (key == "deadline_ms") {
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
        } else if (key == "caps" && sweep) {
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
        } else if (key == "traces" && sweep) {
            if (!wholeNumber(v, INT_MAX, u, error, key))
                return false;
            out.sweep.traces = static_cast<int>(u);
        } else if (key == "arch" && diff) {
            if (v.kind != JsonValue::Kind::String) {
                error = "key 'arch' must be a string";
                return false;
            }
            out.diff.archs = {v.str};
        } else if (key == "bug" && diff) {
            if (v.kind != JsonValue::Kind::String ||
                !injectedBugFromName(v.str, out.diff.bug)) {
                error = "key 'bug' must be \"none\", \"rename_alias\" "
                        "or \"freelist_leak\"";
                return false;
            }
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
