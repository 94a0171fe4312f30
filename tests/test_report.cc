/**
 * @file
 * Tests for the run-report formatting and the simulator's event
 * observer: reports contain the right facts, and observer callbacks
 * agree with the final counters.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

const char *kProgram = R"(
        .data
arr:    .rand 256 9 0 500
        .text
main:
        li   r1, 0
pass:
        li   r2, 0
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        ld   r5, 0(r3)
        addi r5, r5, 1
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 256
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 5
        blt  r1, r6, pass
        halt
)";

/** Trace sink that counts every power-cycle event. */
class CountingSink : public TraceSink
{
  public:
    void
    consume(const TraceEvent &ev) override
    {
        switch (ev.kind) {
          case EventKind::BackupCommit:
            ++backups;
            ++byReason.at(ev.a0);
            break;
          case EventKind::PowerFail: ++failures; break;
          case EventKind::Restore: ++restores; break;
          case EventKind::Hibernate: ++hibernates; break;
          case EventKind::Wake: ++wakes; break;
          default: break;
        }
    }

    uint64_t backups = 0;
    uint64_t failures = 0;
    uint64_t restores = 0;
    uint64_t hibernates = 0;
    uint64_t wakes = 0;
    std::array<uint64_t, kNumBackupReasons> byReason{};
};

RunResult
runWithSink(CountingSink &obs, double farads = 7.5e-3)
{
    Program prog = assemble("rpt", kProgram);
    SystemConfig cfg;
    cfg.capacitorFarads = farads;
    static JitPolicy policy;
    HarvestTrace trace(TraceKind::Rf, 31, 7.0);
    Simulator sim(prog, ArchKind::Clank, cfg, policy, trace);
    sim.attachTrace(&obs);
    return sim.run();
}

TEST(Observer, EventCountsMatchRunResult)
{
    CountingSink obs;
    RunResult r = runWithSink(obs);
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(obs.backups, r.backups);
    EXPECT_EQ(obs.failures, r.powerFailures);
    EXPECT_EQ(obs.restores, r.restores);
    for (size_t i = 0; i < kNumBackupReasons; ++i)
        EXPECT_EQ(obs.byReason[i], r.backupsByReason[i]) << i;
}

TEST(Observer, HibernationsComeFromJitBackups)
{
    CountingSink obs;
    RunResult r = runWithSink(obs);
    ASSERT_TRUE(r.completed);
    // Every policy backup hibernates under JIT; each hibernation
    // either wakes or dies.
    uint64_t policy_backups =
        obs.byReason[static_cast<size_t>(BackupReason::Policy)];
    EXPECT_EQ(obs.hibernates, policy_backups);
    EXPECT_EQ(obs.hibernates, obs.wakes + obs.failures);
}

TEST(Report, FullReportMentionsKeyFacts)
{
    CountingSink obs;
    RunResult r = runWithSink(obs);
    std::string report = formatRunReport(r);
    EXPECT_NE(report.find("rpt"), std::string::npos);
    EXPECT_NE(report.find("clank"), std::string::npos);
    EXPECT_NE(report.find("jit"), std::string::npos);
    EXPECT_NE(report.find("completed"), std::string::npos);
    EXPECT_NE(report.find("validated"), std::string::npos);
    EXPECT_NE(report.find("violations: "), std::string::npos);
    EXPECT_NE(report.find("forward: "), std::string::npos);
}

TEST(Report, IncompleteRunIsFlagged)
{
    RunResult r;
    r.program = "x";
    r.completed = false;
    std::string report = formatRunReport(r);
    EXPECT_NE(report.find("DID NOT COMPLETE"), std::string::npos);
    std::string line = formatRunLine(r);
    EXPECT_NE(line.find("[INCOMPLETE]"), std::string::npos);
}

TEST(Report, InvalidRunIsFlagged)
{
    RunResult r;
    r.program = "x";
    r.completed = true;
    r.validated = false;
    r.validationChecked = true;
    EXPECT_NE(formatRunReport(r).find("VALIDATION FAILED"),
              std::string::npos);
    EXPECT_NE(formatRunLine(r).find("[INVALID]"), std::string::npos);
}

TEST(Report, BreakdownSharesSumToAboutHundred)
{
    CountingSink obs;
    RunResult r = runWithSink(obs);
    std::string bd = formatEnergyBreakdown(r);
    // Parse the percentages back out and sum them.
    double sum = 0;
    size_t pos = 0;
    while ((pos = bd.find('(', pos)) != std::string::npos) {
        sum += std::strtod(bd.c_str() + pos + 1, nullptr);
        ++pos;
    }
    EXPECT_NEAR(sum, 100.0, 1.0);
}

TEST(Report, SkippedValidationIsNotAFailure)
{
    RunResult r;
    r.program = "x";
    r.completed = true;
    r.validated = false;
    r.validationChecked = false;
    std::string report = formatRunReport(r);
    EXPECT_EQ(report.find("VALIDATION FAILED"), std::string::npos);
    EXPECT_NE(report.find("validation skipped"), std::string::npos);
    EXPECT_EQ(formatRunLine(r).find("[INVALID]"), std::string::npos);
}

TEST(Report, LineSummaryIsOneLine)
{
    CountingSink obs;
    RunResult r = runWithSink(obs);
    std::string line = formatRunLine(r);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    EXPECT_NE(line.find("uJ"), std::string::npos);
}

} // namespace
} // namespace nvmr
