/**
 * @file
 * Trace smoke test (the `trace-smoke` ctest target): run one short
 * workload on every architecture with tracing enabled, export the
 * Chrome/Perfetto trace, the binary trace and the run manifest, and
 * validate every emitted document with the strict JSON validator.
 * This is the end-to-end guarantee behind docs/observability.md: any
 * workload x architecture pair yields a loadable trace and a
 * schema-valid manifest.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/json.hh"
#include "obs/manifest.hh"
#include "obs/trace.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

namespace nvmr
{
namespace
{

struct SmokeResult
{
    RunResult run;
    std::string manifestJson;
    std::string traceJson;
    uint64_t eventsRecorded = 0;
};

SmokeResult
smokeOne(ArchKind arch)
{
    Program prog = assembleWorkload("hist");
    SystemConfig cfg;
    // The ideal architecture assumes perfect JIT; everything else
    // gets a watchdog cadence so backups and events flow steadily.
    std::unique_ptr<BackupPolicy> policy;
    if (arch == ArchKind::Ideal)
        policy = std::make_unique<JitPolicy>();
    else
        policy = std::make_unique<WatchdogPolicy>(4000);
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);

    Simulator sim(prog, arch, cfg, *policy, trace);
    TraceBuffer buffer;
    sim.attachTrace(&buffer);
    SmokeResult out;
    out.run = sim.run();

    ManifestWriter manifest("trace_smoke");
    manifest.setConfig(cfg);
    manifest.addRun(out.run);
    manifest.addStatGroup(std::string("hist/") + archKindName(arch),
                          sim.archRef().statGroup());
    out.manifestJson = manifest.json();
    out.traceJson = buffer.toChromeJson();
    out.eventsRecorded = buffer.totalRecorded();

    // Exercise the file paths too: manifest + binary trace land on
    // disk exactly as the tools write them.
    std::string base = testing::TempDir() + "/nvmr_smoke_" +
                       archKindName(arch);
    manifest.writeFile(base + ".json");
    {
        std::ofstream os(base + ".trace.bin", std::ios::binary);
        buffer.writeBinary(os);
    }
    // Magic + version + count + dropped, then 5 words per event.
    std::ifstream is(base + ".trace.bin",
                     std::ios::binary | std::ios::ate);
    EXPECT_EQ(static_cast<uint64_t>(is.tellg()),
              28 + 40 * buffer.size());
    std::remove((base + ".json").c_str());
    std::remove((base + ".trace.bin").c_str());
    return out;
}

class TraceSmoke : public ::testing::TestWithParam<ArchKind>
{
};

TEST_P(TraceSmoke, WorkloadProducesValidTraceAndManifest)
{
    SmokeResult r = smokeOne(GetParam());
    EXPECT_TRUE(r.run.completed);
    EXPECT_TRUE(r.run.validated);
    EXPECT_GT(r.eventsRecorded, 0u);

    std::string err;
    EXPECT_TRUE(jsonValidate(r.manifestJson, &err))
        << "manifest: " << err;
    EXPECT_TRUE(jsonValidate(r.traceJson, &err)) << "trace: " << err;

    // Schema markers downstream tooling keys on.
    EXPECT_NE(r.manifestJson.find("\"nvmr-run-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(r.manifestJson.find("\"backup_interval_cycles\""),
              std::string::npos);
    EXPECT_NE(r.traceJson.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(r.traceJson.find("\"backup_commit\""),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, TraceSmoke,
    ::testing::Values(ArchKind::Ideal, ArchKind::Clank,
                      ArchKind::ClankOriginal, ArchKind::Task,
                      ArchKind::Nvmr, ArchKind::Hoop),
    [](const ::testing::TestParamInfo<ArchKind> &info) {
        return std::string(archKindName(info.param));
    });

} // namespace
} // namespace nvmr
