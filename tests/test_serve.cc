/**
 * @file
 * Tests for the nvmr_serve service layer: the shared backoff helper
 * (determinism, doubling, cap, jitter bounds), strict nvmr-job-v1
 * parsing, journal degraded-mode re-probe recovery, and the Service
 * itself run in-process over --once spools -- clean drains, resume
 * skipping, parse-error degraded mode, deadline quarantine,
 * admission backpressure (and the ProgramCache resident-bytes count
 * it uses), and drain-on-interrupt. Two fork/exec
 * tests drive the real nvmr_serve binary (NVMR_SERVE_BIN) through
 * the SIGTERM graceful-drain and second-signal force-exit paths.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/journal.hh"
#include "campaign/sig.hh"
#include "common/backoff.hh"
#include "common/exitcodes.hh"
#include "common/fsutil.hh"
#include "common/log.hh"
#include "cpu/decoded.hh"
#include "obs/json.hh"
#include "serve/job.hh"
#include "serve/runner.hh"
#include "serve/service.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace nvmr
{
namespace
{

std::string
tempDir(const std::string &name)
{
    std::string path = testing::TempDir() + "/" + name;
    std::string cmd = "rm -rf '" + path + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    EXPECT_TRUE(makeDirs(path));
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

constexpr const char *kSweepJob =
    "{\n"
    "  \"schema\": \"nvmr-job-v1\",\n"
    "  \"type\": \"sweep\",\n"
    "  \"workloads\": [\"hist\"],\n"
    "  \"archs\": [\"nvmr\"],\n"
    "  \"policies\": [\"jit\"],\n"
    "  \"traces\": 1\n"
    "}\n";

/* ---------------------------- Backoff ---------------------------- */

TEST(Backoff, DeterministicForSeedAndAttempt)
{
    Backoff a{1000, 1u << 20, 42};
    Backoff b{1000, 1u << 20, 42};
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(a.delayNs(i), b.delayNs(i));
    Backoff c{1000, 1u << 20, 43};
    bool any_diff = false;
    for (unsigned i = 0; i < 10; ++i)
        any_diff = any_diff || a.delayNs(i) != c.delayNs(i);
    EXPECT_TRUE(any_diff);
}

TEST(Backoff, ExponentialWithinEqualJitterBounds)
{
    Backoff b{1000, 1ull << 40, 7};
    for (unsigned i = 0; i < 12; ++i) {
        uint64_t full = 1000ull << i;
        uint64_t d = b.delayNs(i);
        EXPECT_GE(d, full / 2) << "attempt " << i;
        EXPECT_LE(d, full) << "attempt " << i;
    }
}

TEST(Backoff, CapBoundsTheDelayAndOverflow)
{
    Backoff b{1000, 5000, 7};
    // The cap binds from attempt 3 on (1000 << 3 > 5000).
    for (unsigned i = 3; i < 100; ++i) {
        uint64_t d = b.delayNs(i);
        EXPECT_GE(d, 2500u);
        EXPECT_LE(d, 5000u);
    }
    // A shift past 63 bits must saturate at the cap, not wrap.
    Backoff wide{1ull << 40, 1ull << 50, 7};
    EXPECT_LE(wide.delayNs(90), 1ull << 50);
    EXPECT_GE(wide.delayNs(90), 1ull << 49);
}

/* --------------------------- Job parsing ------------------------- */

TEST(JobParse, SweepDefaultsAndOverrides)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(kSweepJob, "j1", spec, error))
        << error;
    EXPECT_EQ(spec.name, "j1");
    EXPECT_EQ(spec.type, serve::JobType::Sweep);
    EXPECT_EQ(spec.sweep.workloads,
              std::vector<std::string>{"hist"});
    EXPECT_EQ(spec.sweep.traces, 1);
    EXPECT_EQ(spec.retries, 2u);     // default
    EXPECT_EQ(spec.deadlineMs, 0u);  // default: no deadline
    EXPECT_EQ(spec.cellCount(), 1u);
    EXPECT_NE(spec.configSpec().find("hist"), std::string::npos);
}

TEST(JobParse, FuzzJob)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"fuzz\","
        "\"iterations\":5,\"base_seed\":9,\"faults\":true}",
        "fz", spec, error))
        << error;
    EXPECT_EQ(spec.type, serve::JobType::Fuzz);
    EXPECT_EQ(spec.fuzz.iterations, 5u);
    EXPECT_EQ(spec.fuzz.baseSeed, 9u);
    EXPECT_TRUE(spec.fuzz.faults);
}

TEST(JobParse, EngineKeyParsesButStaysOutOfTheConfigSpec)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"fuzz\","
        "\"iterations\":2,\"engine\":\"threaded\"}",
        "fz", spec, error))
        << error;
    EXPECT_EQ(spec.engine, EngineKind::Threaded);
    // Both engines are bit-identical, so the knob must never gate a
    // journal resume.
    EXPECT_EQ(spec.configSpec().find("engine"), std::string::npos);

    serve::JobSpec interp;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"fuzz\","
        "\"iterations\":2,\"engine\":\"interp\"}",
        "fz", interp, error))
        << error;
    EXPECT_EQ(interp.engine, EngineKind::Interp);
    EXPECT_EQ(interp.configSpec(), spec.configSpec());

    // Bad value: rejected with the key named, never fatal.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"engine\":\"turbo\"}",
        "j", spec, error));
    EXPECT_NE(error.find("engine"), std::string::npos);
}

TEST(JobParse, RejectsMalformedJobs)
{
    serve::JobSpec spec;
    std::string error;
    // Unknown key.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"bogus\":1}",
        "j", spec, error));
    EXPECT_NE(error.find("bogus"), std::string::npos);
    // Wrong schema.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v2\",\"type\":\"sweep\"}", "j",
        spec, error));
    // Unknown workload.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"workloads\":[\"nope\"]}",
        "j", spec, error));
    // Invalid JSON.
    EXPECT_FALSE(serve::parseJobText("{", "j", spec, error));
    // A capacitance that overflows to infinity.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"caps\":[1e999]}",
        "j", spec, error));
    EXPECT_NE(error.find("caps"), std::string::npos) << error;
    // No traces.
    EXPECT_FALSE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
        "\"traces\":0}",
        "j", spec, error));
    EXPECT_NE(error.find("traces"), std::string::npos) << error;
}

TEST(JobParse, CrashtestJobKeepsTheToolsConfigSpec)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"crashtest\","
        "\"workloads\":[\"hist\"],\"archs\":[\"nvmr\",\"hoop\"],"
        "\"max_backups\":2,\"stride\":4,\"cycle_samples\":2,"
        "\"verify_fork\":3,\"verbose\":true,"
        "\"watchdog_cycles\":1000000000}",
        "ct", spec, error))
        << error;
    EXPECT_EQ(spec.type, serve::JobType::Crashtest);
    EXPECT_EQ(spec.crashtest.verifyFork, 3u);
    EXPECT_TRUE(spec.crashtest.verbose);
    EXPECT_EQ(spec.cellCount(), 2u); // one census per combination
    // Byte for byte what nvmr_crashtest has always hashed, so its
    // journals resume (journal-compat pins a real one).
    EXPECT_EQ(spec.configSpec(),
              "crashtest|stages=census,points|workloads=hist|"
              "archs=nvmr,hoop|max_backups=2|stride=4|cycle_samples=2|"
              "seed=1|snap_stride=4|watchdog_cycles=1000000000|"
              "watchdog_retries=2");
}

TEST(JobParse, DiffJobKeepsTheToolsConfigSpec)
{
    serve::JobSpec spec;
    std::string error;
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"diff\","
        "\"smoke\":true}",
        "d", spec, error))
        << error;
    EXPECT_EQ(spec.type, serve::JobType::Diff);
    EXPECT_EQ(spec.configSpec(),
              "diff|archs=nvmr,clank,clank_original,hoop,task,ideal|"
              "schedules=1|seed=1|bug=0|smoke=1|watchdog_cycles=0|"
              "watchdog_retries=2");

    // One architecture; a seeded bug narrows the campaign to nvmr.
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"diff\","
        "\"arch\":\"hoop\",\"schedules\":20,\"seed\":7}",
        "d", spec, error))
        << error;
    EXPECT_EQ(spec.diff.archs, std::vector<std::string>{"hoop"});
    EXPECT_EQ(spec.cellCount(), 20u);
    ASSERT_TRUE(serve::parseJobText(
        "{\"schema\":\"nvmr-job-v1\",\"type\":\"diff\","
        "\"arch\":\"hoop\",\"bug\":\"rename_alias\"}",
        "d", spec, error))
        << error;
    EXPECT_EQ(spec.diff.archs, std::vector<std::string>{"nvmr"});
    EXPECT_EQ(spec.configSpec(),
              "diff|archs=nvmr|schedules=1000|seed=1|bug=2|smoke=0|"
              "watchdog_cycles=0|watchdog_retries=2");
}

TEST(JobParse, RejectsMalformedCrashtestAndDiffJobs)
{
    struct Bad
    {
        const char *fields; ///< after "schema"
        const char *needle; ///< expected in the error
    };
    const Bad bad[] = {
        // Unknown keys, including another kind's keys.
        {"\"type\":\"crashtest\",\"policies\":[\"jit\"]",
         "unknown key 'policies'"},
        {"\"type\":\"diff\",\"archs\":[\"nvmr\"]",
         "unknown key 'archs'"},
        {"\"type\":\"fuzz\",\"seed\":3", "unknown key 'seed'"},
        // ideal is refused with the perfect-JIT reason.
        {"\"type\":\"crashtest\",\"archs\":[\"nvmr\",\"ideal\"]",
         "perfect-JIT"},
        {"\"type\":\"crashtest\",\"archs\":[\"nope\"]",
         "valid: clank, clank_original, task, nvmr, hoop"},
        {"\"type\":\"crashtest\",\"archs\":[]", "non-empty"},
        {"\"type\":\"crashtest\",\"workloads\":[\"nope\"]",
         "unknown workload"},
        {"\"type\":\"diff\",\"arch\":\"nope\"",
         "unknown architecture"},
        {"\"type\":\"diff\",\"bug\":\"nope\"", "key 'bug'"},
        // Out-of-range counts.
        {"\"type\":\"crashtest\",\"stride\":0", "stride"},
        {"\"type\":\"crashtest\",\"snap_stride\":0", "stride"},
        {"\"type\":\"crashtest\",\"max_backups\":-1",
         "max_backups"},
        {"\"type\":\"crashtest\",\"cycle_samples\":1.5",
         "cycle_samples"},
        {"\"type\":\"diff\",\"schedules\":0", "schedules"},
        {"\"type\":\"diff\",\"schedules\":4294967296", "schedules"},
        {"\"type\":\"diff\",\"smoke\":1", "boolean"},
        {"\"type\":\"train\"", "type must be"},
    };
    for (const Bad &b : bad) {
        serve::JobSpec spec;
        std::string error;
        std::string text = std::string("{\"schema\":\"nvmr-job-v1\",") +
                           b.fields + "}";
        EXPECT_FALSE(serve::parseJobText(text, "j", spec, error)) << text;
        EXPECT_NE(error.find(b.needle), std::string::npos)
            << text << ": " << error;
    }
}

/* ---------------------- Fuzz failure report ---------------------- */

// nvmr_fuzz prints and a served fuzz job logs this one rendering;
// no fuzz case diverges on demand, so pin it on synthetic outcomes.
TEST(FuzzFailure, RendersFaultsModeReport)
{
    FuzzOutcome out;
    out.ok = false;
    out.run.completed = true;
    out.haveFaults = true;
    out.faults.crashAtPersist = 17;
    out.faults.crashAtCycle = 0;
    out.faults.transientBitErrorRate = 2e-5;
    // Case 12 is nvmr/watchdog at 500 uF with byte-granular LBFs.
    EXPECT_EQ(renderFuzzFailure(out, 42, 12, true, false),
              "\nFAILURE: seed 42 on nvmr/watchdog at 0.0005 F: "
              "final state diverged\n"
              "faults: crashAtPersist=17 crashAtCycle=0 "
              "transientBitErrorRate=2e-05\n"
              "repro: nvmr_fuzz --faults --one 42 12   "
              "# nvmr/watchdog at 0.0005 F (byte LBF)\n");
    out.run.completed = false;
    out.haveFaults = false;
    EXPECT_EQ(renderFuzzFailure(out, 5, 1, false, false),
              "\nFAILURE: seed 5 on clank/jit at 0.1 F: "
              "did not complete\n"
              "repro: nvmr_fuzz --one 5 1   # clank/jit at 0.1 F\n");
}

TEST(FuzzFailure, RendersOracleModeReport)
{
    FuzzOutcome out;
    out.ok = false;
    out.haveFaults = true; // oracle mode reports the oracle's text
    out.checkText = "oracle: final NVM differs\n  word 0x40: 1 != 2\n";
    EXPECT_EQ(renderFuzzFailure(out, 7, 5, true, true),
              "\nFAILURE: seed 7 on nvmr/jit at 0.1 F: "
              "oracle: final NVM differs\n  word 0x40: 1 != 2\n"
              "repro: nvmr_fuzz --faults --oracle --one 7 5   "
              "# nvmr/jit at 0.1 F\n");
}

/* ------------------- Journal re-probe recovery ------------------- */

TEST(JournalReprobe, RecoversAfterTransientFault)
{
    std::string dir = tempDir("jrn_reprobe");
    std::string missing = dir + "/sub";
    std::string path = missing + "/x.jrn";

    campaign::JournalWriter w;
    // Zero-delay backoff so the re-probe runs on every append.
    w.setReprobeBackoff(Backoff{0, 0, 1});
    EXPECT_FALSE(w.openFresh(path, 0xabcdull, "nvmr_test"));
    EXPECT_TRUE(w.degraded());

    // Still degraded: the directory is still missing.
    EXPECT_FALSE(w.append(campaign::RecordType::Cell,
                          campaign::cellKey("g", 0), "a"));

    // Heal the fault; the next append must re-probe, rebuild the
    // journal (header included) and land the record.
    ASSERT_TRUE(makeDirs(missing));
    EXPECT_TRUE(w.append(campaign::RecordType::Cell,
                         campaign::cellKey("g", 1), "b"));
    EXPECT_FALSE(w.degraded());
    EXPECT_TRUE(w.everDegraded()); // exit-3 latch survives recovery
    w.close();

    campaign::JournalContents jc = campaign::loadJournal(path);
    EXPECT_TRUE(jc.error.empty()) << jc.error;
    EXPECT_EQ(jc.configHash, 0xabcdull);
    EXPECT_EQ(jc.tool, "nvmr_test");
    EXPECT_EQ(jc.cells.size(), 1u);
}

/* ------------------------ Service (in-process) ------------------- */

int
runService(serve::ServeOptions opts)
{
    serve::Service service(std::move(opts));
    return service.run();
}

serve::ServeOptions
onceOptions(const std::string &spool)
{
    serve::ServeOptions opts;
    opts.spoolDir = spool;
    opts.once = true;
    opts.jobMetricsInterval = 0; // keep test output dirs minimal
    opts.retryBackoff = Backoff{1'000'000, 2'000'000, 1};
    return opts;
}

TEST(Service, EmptySpoolDrainsClean)
{
    std::string spool = tempDir("serve_empty");
    EXPECT_EQ(runService(onceOptions(spool)), kExitOk);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    EXPECT_EQ(doc.stringAt("schema"), "nvmr-serve-v1");
    const JsonValue *final_v = doc.find("final");
    ASSERT_NE(final_v, nullptr);
    EXPECT_TRUE(final_v->boolean);
    EXPECT_EQ(doc.find("jobs")->numberAt("admitted"), 0);
}

TEST(Service, RunsASweepJobAndResumeIsByteIdentical)
{
    std::string spool = tempDir("serve_sweep");
    writeFile(spool + "/job1.job", kSweepJob);
    EXPECT_EQ(runService(onceOptions(spool)), kExitOk);

    std::string csv_path = spool + "/.nvmr_serve/out/job1.csv";
    std::string csv = readFile(csv_path);
    ASSERT_FALSE(csv.empty());
    EXPECT_NE(csv.find("hist,nvmr,jit"), std::string::npos);

    // A --resume restart must skip the recorded job (outputs stay
    // byte-identical, nothing re-runs).
    serve::ServeOptions again = onceOptions(spool);
    again.resume = true;
    EXPECT_EQ(runService(again), kExitOk);
    EXPECT_EQ(readFile(csv_path), csv);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    EXPECT_EQ(doc.find("jobs")->numberAt("admitted"), 0)
        << "resume re-ran a recorded job";
}

TEST(Service, ParseErrorDegradesWithoutKillingHealthyJobs)
{
    std::string spool = tempDir("serve_badjob");
    writeFile(spool + "/bad.job", "{ not json");
    writeFile(spool + "/good.job", kSweepJob);
    EXPECT_EQ(runService(onceOptions(spool)), kExitDegraded);

    EXPECT_FALSE(
        readFile(spool + "/.nvmr_serve/out/good.csv").empty());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    EXPECT_EQ(doc.find("jobs")->numberAt("failed"), 1);
    EXPECT_EQ(doc.find("jobs")->numberAt("done"), 1);
}

TEST(Service, PoisonJobIsRetriedThenQuarantined)
{
    std::string spool = tempDir("serve_poison");
    // `spin` never halts and the watchdog budget is astronomically
    // large, so every attempt must die by wall-clock deadline: retry
    // with doubled budgets, then quarantine. A healthy job rides
    // along and must be unaffected.
    writeFile(spool + "/poison.job",
              "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
              "\"workloads\":[\"spin\"],\"archs\":[\"nvmr\"],"
              "\"policies\":[\"jit\"],\"traces\":1,"
              "\"deadline_ms\":200,\"retries\":1,"
              "\"watchdog_cycles\":1000000000000}");
    writeFile(spool + "/good.job", kSweepJob);
    EXPECT_EQ(runService(onceOptions(spool)), kExitDegraded);

    EXPECT_FALSE(
        readFile(spool + "/.nvmr_serve/out/good.csv").empty());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    EXPECT_EQ(doc.find("jobs")->numberAt("quarantined"), 1);
    EXPECT_EQ(doc.find("jobs")->numberAt("retried"), 1);
    EXPECT_EQ(doc.find("jobs")->numberAt("done"), 1);
}

TEST(Service, BackpressureDefersButDrainsEverything)
{
    std::string spool = tempDir("serve_backpressure");
    writeFile(spool + "/a.job", kSweepJob);
    writeFile(spool + "/b.job", kSweepJob);
    writeFile(spool + "/c.job", kSweepJob);
    serve::ServeOptions opts = onceOptions(spool);
    opts.maxQueuedJobs = 1;
    EXPECT_EQ(runService(opts), kExitOk);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    EXPECT_EQ(doc.find("jobs")->numberAt("done"), 3)
        << "backpressure dropped a job instead of deferring it";
    EXPECT_GT(doc.numberAt("deferrals"), 0);

    // The reported resident bytes cover what running `hist` leaves in
    // the warm cache: its decoded-op image and its golden image.
    Program hist = assembleWorkload("hist");
    EXPECT_GE(doc.numberAt("resident_bytes"),
              static_cast<double>(decodedImageBytes(hist) +
                                  goldenImageBytes(hist)));
}

TEST(ProgramCache, ResidentBytesCountDecodedAndGoldenImages)
{
    serve::ProgramCache cache;
    const Program &prog = cache.get("qsort");
    uint64_t resident = cache.residentBytes();
    EXPECT_EQ(&cache.get("qsort"), &prog); // cached: no re-count
    EXPECT_EQ(cache.residentBytes(), resident);

    // The images the program builds on first use fit the count.
    auto decoded = decodedProgram(prog);
    auto golden = goldenRun(prog);
    uint64_t images = decoded->ops.size() * sizeof(DecodedOp) +
                      golden->data.size();
    EXPECT_EQ(golden->data.size(), goldenImageBytes(prog));
    EXPECT_GE(resident, prog.text.size() * sizeof(Instruction) +
                            prog.data.size() + images);
}

TEST(Service, PresetInterruptDrainsImmediately)
{
    std::string spool = tempDir("serve_interrupt");
    writeFile(spool + "/job1.job", kSweepJob);
    campaign::setInterruptForTest(SIGTERM);
    serve::ServeOptions opts = onceOptions(spool);
    int rc = runService(std::move(opts));
    campaign::setInterruptForTest(0);
    // Nothing failed; the drain exits through the job-health ladder.
    EXPECT_EQ(rc, kExitOk);

    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(spool + "/.nvmr_serve/serve.json"),
                          doc, &err))
        << err;
    const JsonValue *final_v = doc.find("final");
    ASSERT_NE(final_v, nullptr);
    EXPECT_TRUE(final_v->boolean);
    EXPECT_EQ(doc.find("jobs")->numberAt("admitted"), 0)
        << "admission continued after the interrupt";
}

/* ----------------- Signal paths (real binary) -------------------- */

#ifdef NVMR_SERVE_BIN

/** Spawn nvmr_serve, return its pid (stdout/stderr to files). */
pid_t
spawnServe(const std::vector<std::string> &args,
           const std::string &log)
{
    std::vector<const char *> argv = {NVMR_SERVE_BIN};
    for (const std::string &a : args)
        argv.push_back(a.c_str());
    argv.push_back(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        FILE *f = std::freopen(log.c_str(), "w", stdout);
        (void)f;
        dup2(STDOUT_FILENO, STDERR_FILENO);
        execv(NVMR_SERVE_BIN, const_cast<char *const *>(argv.data()));
        _exit(127);
    }
    return pid;
}

bool
waitForFile(const std::string &path, int timeout_ms)
{
    struct stat st;
    for (int i = 0; i < timeout_ms / 20; ++i) {
        if (::stat(path.c_str(), &st) == 0 && st.st_size > 0)
            return true;
        ::usleep(20 * 1000);
    }
    return false;
}

bool
waitForText(const std::string &path, const std::string &needle,
            int timeout_ms)
{
    for (int i = 0; i < timeout_ms / 20; ++i) {
        if (readFile(path).find(needle) != std::string::npos)
            return true;
        ::usleep(20 * 1000);
    }
    return false;
}

TEST(ServeSignals, SigtermDrainsWithCompleteArtifacts)
{
    std::string spool = tempDir("serve_sigterm");
    writeFile(spool + "/job1.job", kSweepJob);
    std::string state = spool + "/.nvmr_serve";

    // No --once: the service would poll forever; SIGTERM is the only
    // way out, which is exactly the drain path under test.
    pid_t pid = spawnServe({"--spool", spool, "--poll-ms", "50",
                            "--no-job-metrics"},
                           spool + "/serve.log");
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(waitForFile(state + "/serve.json", 10000))
        << "service never published a snapshot";
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "graceful drain died on a signal";
    EXPECT_LE(WEXITSTATUS(status), kExitDegraded);

    // The final snapshot must be flushed, parseable, and final.
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(jsonParse(readFile(state + "/serve.json"), doc,
                          &err))
        << err;
    const JsonValue *final_v = doc.find("final");
    ASSERT_NE(final_v, nullptr);
    EXPECT_TRUE(final_v->boolean);

    // The service journal must be loadable (never torn by a drain).
    campaign::JournalContents jc =
        campaign::loadJournal(state + "/serve.jrn");
    EXPECT_TRUE(jc.error.empty()) << jc.error;

    // A --resume --once restart finishes whatever the drain left.
    pid = spawnServe({"--spool", spool, "--resume", "--once",
                      "--no-job-metrics"},
                     spool + "/serve2.log");
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), kExitOk);
    EXPECT_FALSE(readFile(state + "/out/job1.csv").empty());
}

TEST(ServeSignals, SecondSignalForceExits)
{
    std::string spool = tempDir("serve_forcekill");
    // A poison job with an enormous drain grace keeps the service
    // busy after the first SIGTERM; the second must force-exit
    // 128+SIGTERM immediately.
    writeFile(spool + "/poison.job",
              "{\"schema\":\"nvmr-job-v1\",\"type\":\"sweep\","
              "\"workloads\":[\"spin\"],\"archs\":[\"nvmr\"],"
              "\"policies\":[\"jit\"],\"traces\":1,"
              "\"watchdog_cycles\":1000000000000}");
    std::string state = spool + "/.nvmr_serve";

    pid_t pid = spawnServe({"--spool", spool, "--poll-ms", "50",
                            "--drain-grace-ms", "600000",
                            "--no-job-metrics"},
                           spool + "/serve.log");
    ASSERT_GT(pid, 0);
    // The per-job journal appears the moment the job starts; only
    // then is the service guaranteed busy enough that the first
    // SIGTERM cannot drain it cleanly before the second arrives.
    ASSERT_TRUE(waitForFile(state + "/jrn/poison.jrn", 10000))
        << "poison job never started";
    ::usleep(200 * 1000);
    ASSERT_EQ(::kill(pid, SIGTERM), 0);
    // Send the second signal only once the service logged that it
    // handled the first: two signals in flight at once can merge
    // into one pending signal (TSan defers asynchronous signals).
    ASSERT_TRUE(waitForText(spool + "/serve.log", "drain requested",
                            10000))
        << "first SIGTERM never started a drain";
    ASSERT_EQ(::kill(pid, SIGTERM), 0);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "force-exit path not taken";
    EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);
}

#endif // NVMR_SERVE_BIN

} // namespace
} // namespace nvmr
