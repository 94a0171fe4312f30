/**
 * @file
 * Final-image inspection: IntermittentArch::inspectWord (and NvMR's
 * inspectMapping behind it) probes one cache set and one
 * map-table-cache set. These tests check that answer against a
 * brute-force reference that walks every cache line and every
 * map-table-cache entry, on mid-run and final states of intermittent
 * runs with power failures, and that validation leaves every piece of
 * architecture and simulator state untouched (no LRU refresh, no
 * hit/miss count, no energy).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "arch/hoop.hh"
#include "core/nvmr_arch.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"
#include "workloads/workloads.hh"

namespace nvmr
{
namespace
{

struct InspectCase
{
    std::string name;
    ArchKind arch;
    bool reclaimSmallMtc = false;
};

/**
 * gtest's default printer dumps the struct's bytes, std::string's data
 * pointer included, and ctest test names carry that printout: without
 * this the names change from build to build.
 */
void
PrintTo(const InspectCase &c, std::ostream *os)
{
    *os << archKindName(c.arch);
}

SystemConfig
configFor(const InspectCase &c)
{
    SystemConfig cfg;
    cfg.capacitorFarads = 7.5e-3; // failure-prone
    cfg.oopRegionEntries = 384;
    if (c.reclaimSmallMtc) {
        // A 16-entry, 4-set map-table cache and a small map table:
        // evictions, reclaims and several occupied sets.
        cfg.reclaimEnabled = true;
        cfg.mtCacheEntries = 16;
        cfg.mtCacheWays = 4;
        cfg.mapTableEntries = 64;
    }
    return cfg;
}

/**
 * The reference: the value inspectWord must report, found by walking
 * every cache line and every map-table-cache entry. Empty for a HOOP
 * word that is not cached (its buffer and log are private; only the
 * cache probe in front of them is under test there).
 */
std::optional<Word>
bruteForceWord(const IntermittentArch &arch, const Nvm &nvm, Addr addr)
{
    const uint32_t block_bytes = arch.dataCache().config().blockBytes;
    const Addr block = addr & ~(block_bytes - 1);
    std::optional<Word> cached;
    arch.dataCache().forEachLine([&](const CacheLine &line) {
        if (line.valid && line.blockAddr == block) {
            EXPECT_FALSE(cached.has_value())
                << "block " << block << " cached twice";
            cached = line.data[(addr - block) / kWordBytes];
        }
    });
    if (cached)
        return cached;
    if (dynamic_cast<const HoopArch *>(&arch))
        return std::nullopt;
    Addr mapped = block;
    if (auto *nvmr = dynamic_cast<const NvmrArch *>(&arch)) {
        bool found = false;
        nvmr->mtCacheRef().forEach([&](const MtcEntry &e) {
            if (e.valid && e.tag == block) {
                EXPECT_FALSE(found)
                    << "tag " << block << " cached twice";
                mapped = e.newMap;
                found = true;
            }
        });
        if (!found)
            if (auto m = nvmr->mapTableRef().peek(block))
                mapped = *m;
    }
    return nvm.inspectWord(mapped + (addr - block));
}

/** Compare every data word; returns the number of words checked
 *  against a reference value. */
uint64_t
expectInspectionMatches(Simulator &sim, const Program &prog,
                        const std::string &what)
{
    uint64_t checked = 0;
    const IntermittentArch &arch = sim.archRef();
    for (Addr a = 0; a < prog.dataSize(); a += kWordBytes) {
        std::optional<Word> want =
            bruteForceWord(arch, sim.nvmRef(), a);
        if (!want)
            continue;
        ++checked;
        Word got = arch.inspectWord(a);
        EXPECT_EQ(got, *want) << what << " word at " << a;
        if (got != *want)
            break; // one report per state is enough
    }
    return checked;
}

std::vector<uint64_t>
lruTicks(const IntermittentArch &arch)
{
    std::vector<uint64_t> ticks;
    arch.dataCache().forEachLine(
        [&](const CacheLine &line) { ticks.push_back(line.lruTick); });
    if (auto *nvmr = dynamic_cast<const NvmrArch *>(&arch))
        nvmr->mtCacheRef().forEach(
            [&](const MtcEntry &e) { ticks.push_back(e.lruTick); });
    return ticks;
}

class Inspection : public ::testing::TestWithParam<InspectCase>
{
};

/**
 * Checks inspection at every `stride`-th safe point (the first
 * instruction boundary after each committed backup) and cancels the
 * run at the `stopAt`-th one, so the run ends at most ~1k instructions
 * later on a warm state: dirty lines, dirty map-table-cache entries,
 * a non-empty HOOP buffer.
 */
class InspectingSink : public SnapshotSink
{
  public:
    InspectingSink(const Program &p, std::string label, uint64_t every,
                   uint64_t stop_at)
        : prog(p), what(std::move(label)), stride(every), stopAt(stop_at)
    {}

    void
    onSnapshotPoint(Simulator &sim) override
    {
        ++points;
        if (points % stride == 0)
            checked += expectInspectionMatches(
                sim, prog, what + " safe point " + std::to_string(points));
        if (points == stopAt)
            cancel = true;
    }

    const Program &prog;
    std::string what;
    uint64_t stride;
    uint64_t stopAt;
    uint64_t points = 0;
    uint64_t checked = 0;
    std::atomic<bool> cancel{false};
};

TEST_P(Inspection, AgreesWithFullWalkAcrossPowerFailures)
{
    const InspectCase &c = GetParam();
    SystemConfig cfg = configFor(c);
    HarvestTrace trace(TraceKind::Rf, 4242, 7.0);
    for (const char *workload : {"hist", "qsort"}) {
        Program prog = assembleWorkload(workload);
        const std::string what = c.name + "/" + workload;
        uint64_t safe_points = 0;
        uint64_t failures = 0;
        uint64_t checked = 0;
        // The full run (checked at every 16th safe point and at the
        // end), then runs stopped a quarter, half and three quarters
        // of the way through.
        for (int quarter = 4; quarter >= 1; --quarter) {
            InspectingSink sink(prog, what, quarter == 4 ? 16 : ~0ull,
                                safe_points * quarter / 4);
            WatchdogPolicy policy;
            RunOptions opts;
            opts.snapshots = &sink;
            opts.cancel = &sink.cancel;
            Simulator sim(prog, c.arch, cfg, policy, trace, opts);
            RunResult r = sim.run();
            std::string at = what + " stopped at " +
                             std::to_string(quarter) + "/4";
            ASSERT_EQ(r.completed, quarter == 4) << at;
            if (quarter == 4)
                safe_points = sink.points;
            failures += r.powerFailures;
            checked += sink.checked + expectInspectionMatches(sim, prog, at);
        }
        EXPECT_GT(failures, 0u) << what;
        EXPECT_GT(checked, 0u) << what;
    }
}

TEST_P(Inspection, ValidationHasNoSideEffects)
{
    const InspectCase &c = GetParam();
    SystemConfig cfg = configFor(c);
    HarvestTrace trace(TraceKind::Rf, 4242, 7.0);
    Program prog = assembleWorkload("hist");
    std::shared_ptr<const GoldenResult> golden = goldenRun(prog);
    for (bool complete : {true, false}) {
        WatchdogPolicy policy;
        RunOptions opts;
        opts.validate = false;
        if (!complete)
            opts.maxCycles = 1000000;
        Simulator sim(prog, c.arch, cfg, policy, trace, opts);
        RunResult r = sim.run();
        ASSERT_EQ(r.completed, complete) << c.name;

        const IntermittentArch &arch = sim.archRef();
        uint64_t hits = arch.dataCache().hits();
        uint64_t misses = arch.dataCache().misses();
        std::vector<uint64_t> ticks = lruTicks(arch);
        MachineSnapshot before = sim.captureSnapshot();

        sim.validateAgainstGolden(*golden);

        EXPECT_EQ(arch.dataCache().hits(), hits) << c.name;
        EXPECT_EQ(arch.dataCache().misses(), misses) << c.name;
        EXPECT_EQ(lruTicks(arch), ticks) << c.name;
        // Everything else too: the snapshot blob holds every piece of
        // dynamic device and simulator state (capacitor, ledger,
        // cache, map-table cache, LRU clocks, stats).
        EXPECT_EQ(sim.captureSnapshot().blob, before.blob) << c.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Archs, Inspection,
    ::testing::Values(InspectCase{"clank", ArchKind::Clank},
                      InspectCase{"nvmr", ArchKind::Nvmr},
                      InspectCase{"nvmr_reclaim_small_mtc",
                                  ArchKind::Nvmr, true},
                      InspectCase{"hoop", ArchKind::Hoop},
                      InspectCase{"ideal", ArchKind::Ideal},
                      InspectCase{"task", ArchKind::Task}),
    [](const ::testing::TestParamInfo<InspectCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace nvmr
