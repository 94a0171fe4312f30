/**
 * @file
 * Crash-exploration scaling record: crash-points/sec explored from
 * scratch versus forked from COW machine snapshots, across growing
 * trace lengths, exported as BENCH_crashtest_scaling.json. This is
 * the trajectory the snapshot/fork subsystem is regressed against
 * (docs/performance.md, "Snapshots and fork-based crash exploration").
 *
 * The campaign explores the deep frontier: the last K persist
 * boundaries of each trace. That is exactly the regime where the
 * from-scratch explorer goes quadratic -- every deep point pays the
 * whole prefix again, so cost grows as points x trace -- while a
 * forked run pays one snapshot restore plus the short tail, which
 * stays flat as traces grow. Uniformly spread points are reported
 * alongside for transparency (their prefix savings average ~2x by
 * construction). Every forked run is byte-compared against its
 * from-scratch twin; a single diverging counter aborts the bench.
 *
 *     bench_crashtest_scaling              # writes BENCH_crashtest_scaling.json
 *     bench_crashtest_scaling --stats-json out.json
 */

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "campaign/cellio.hh"
#include "isa/assembler.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"
#include "snapshot/snapshot.hh"

using namespace nvmr;

namespace
{

constexpr uint64_t kSeed = 5;       // randprog family member
constexpr uint64_t kSnapStride = 8; // capture every 8th safe point
constexpr size_t kPoints = 100;     // explored points per mode

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    using namespace std::chrono;
    return duration_cast<duration<double>>(steady_clock::now() - t0)
        .count();
}

/** Rescale the generated program's outer loop (the same patch the
 *  shrinker's phase 2 applies, in the other direction). */
std::string
withIterations(const std::string &text, uint64_t iters)
{
    std::ostringstream out;
    std::istringstream in(text);
    std::string line;
    bool patched = false;
    while (std::getline(in, line)) {
        if (!patched &&
            line.find("# outer iterations") != std::string::npos) {
            out << "        li   r2, " << iters
                << "   # outer iterations\n";
            patched = true;
        } else {
            out << line << "\n";
        }
    }
    fatal_if(!patched, "randprog text lacks the outer-loop marker");
    return out.str();
}

/** Run identity: the forked run must reproduce the scratch run's
 *  result bit for bit -- every field the journal codec writes. */
bool
sameRun(const RunResult &a, const RunResult &b)
{
    return campaign::encodeRunResult(a) == campaign::encodeRunResult(b);
}

struct Harness
{
    Program prog;
    SystemConfig cfg;
    HarvestTrace trace{TraceKind::Rf, 7, 8.0};
    PolicySpec spec;

    explicit Harness(const std::string &text)
        : prog(assemble("scaling", text))
    {
        // The crash explorer's policy: periodic watchdog backups give
        // a dense, power-independent lattice of safe points to fork
        // from (a JIT policy on a healthy trace commits almost no
        // backups, leaving nothing to snapshot).
        spec.kind = PolicyKind::Watchdog;
        spec.watchdogPeriod = 4000;
    }

    RunResult
    run(const FaultConfig &faults, SnapshotSink *snaps = nullptr,
        const MachineSnapshot *from = nullptr,
        uint64_t *persists_out = nullptr)
    {
        auto policy = makePolicy(spec);
        RunOptions opts;
        opts.validate = false;
        opts.faults = faults;
        opts.snapshots = snaps;
        opts.resumeFrom = from;
        Simulator sim(prog, ArchKind::Nvmr, cfg, *policy, trace,
                      opts);
        RunResult r = sim.run();
        fatal_if(!r.completed, "scaling cell did not complete");
        if (persists_out)
            *persists_out =
                sim.faultInjector().stats().persistPoints;
        return r;
    }
};

struct ModeTiming
{
    double seconds = 0;
    double pointsPerSec = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchRecorder rec("crashtest_scaling", argc, argv,
                      "BENCH_crashtest_scaling.json");

    const std::string base = makeRandomProgram(kSeed);
    const std::vector<uint64_t> sizes = {4, 16, 64, 256, 1024};

    std::printf("== crash-exploration scaling: scratch vs forked ==\n");
    std::printf("%-8s %12s %8s %12s %12s %8s\n", "iters", "cycles",
                "persists", "scratch p/s", "forked p/s", "speedup");

    double largest_speedup = 0;
    for (uint64_t iters : sizes) {
        Harness h(withIterations(base, iters));

        // Census pass, once per mode: plain for the scratch explorer,
        // snapshot-collecting for the forked one. Both modes need it
        // to enumerate the persist boundaries.
        FaultConfig census;
        census.enabled = true; // count persists, inject nothing
        auto t0 = std::chrono::steady_clock::now();
        RunResult plain = h.run(census);
        double census_plain_s = secondsSince(t0);

        CollectingSnapshotSink sink(kSnapStride);
        uint64_t persists = 0;
        t0 = std::chrono::steady_clock::now();
        RunResult snapped = h.run(census, &sink, nullptr, &persists);
        double census_snap_s = secondsSince(t0);
        fatal_if(!sameRun(plain, snapped),
                 "snapshot capture perturbed the census run");
        fatal_if(persists < kPoints + kSnapStride + 2,
                 "trace too short for the frontier campaign");

        // The deep frontier: the last kPoints persist boundaries.
        std::vector<uint64_t> frontier;
        for (uint64_t p = persists - kPoints + 1; p <= persists; ++p)
            frontier.push_back(p);
        // Uniform spread, for the transparency metric.
        std::vector<uint64_t> uniform;
        for (size_t i = 0; i < kPoints; ++i)
            uniform.push_back(1 + i * (persists - 1) / (kPoints - 1));

        auto explore = [&](const std::vector<uint64_t> &points,
                           bool forked,
                           std::vector<RunResult> &results) {
            results.clear();
            auto start = std::chrono::steady_clock::now();
            for (uint64_t p : points) {
                FaultConfig f;
                f.enabled = true;
                f.crashAtPersist = p;
                ptrdiff_t from =
                    forked ? forkSource(sink.snapshots, f) : -1;
                results.push_back(h.run(
                    f, nullptr,
                    from < 0 ? nullptr : sink.snapshots[from].get()));
            }
            ModeTiming t;
            t.seconds = secondsSince(start);
            t.pointsPerSec =
                static_cast<double>(points.size()) / t.seconds;
            return t;
        };

        std::vector<RunResult> scratch_r, forked_r;
        ModeTiming scratch = explore(frontier, false, scratch_r);
        ModeTiming forked = explore(frontier, true, forked_r);
        for (size_t i = 0; i < frontier.size(); ++i)
            fatal_if(!sameRun(scratch_r[i], forked_r[i]),
                     "fork diverged from scratch at persist ",
                     frontier[i], " (iters ", iters, ")");

        std::vector<RunResult> us_r, uf_r;
        ModeTiming u_scratch = explore(uniform, false, us_r);
        ModeTiming u_forked = explore(uniform, true, uf_r);
        for (size_t i = 0; i < uniform.size(); ++i)
            fatal_if(!sameRun(us_r[i], uf_r[i]),
                     "fork diverged from scratch at persist ",
                     uniform[i], " (iters ", iters, ")");

        // End-to-end: census + exploration, per mode.
        double e2e_scratch = census_plain_s + scratch.seconds;
        double e2e_forked = census_snap_s + forked.seconds;
        double speedup = e2e_scratch / e2e_forked;
        largest_speedup = speedup; // sizes are ascending

        std::printf("%-8llu %12llu %8llu %12.1f %12.1f %7.1fx\n",
                    static_cast<unsigned long long>(iters),
                    static_cast<unsigned long long>(
                        snapped.totalCycles),
                    static_cast<unsigned long long>(persists),
                    static_cast<double>(kPoints) / e2e_scratch,
                    static_cast<double>(kPoints) / e2e_forked,
                    speedup);

        std::string pre = "n" + std::to_string(iters) + "_";
        rec.add(pre + "total_cycles",
                static_cast<double>(snapped.totalCycles), "cycles");
        rec.add(pre + "persist_points",
                static_cast<double>(persists));
        rec.add(pre + "snapshots_captured",
                static_cast<double>(sink.snapshots.size()));
        rec.add(pre + "census_seconds", census_plain_s, "s");
        rec.add(pre + "census_snapshot_seconds", census_snap_s, "s");
        rec.add(pre + "scratch_points_per_sec", scratch.pointsPerSec,
                "points/s");
        rec.add(pre + "forked_points_per_sec", forked.pointsPerSec,
                "points/s");
        rec.add(pre + "frontier_speedup", speedup, "x");
        rec.add(pre + "uniform_scratch_points_per_sec",
                u_scratch.pointsPerSec, "points/s");
        rec.add(pre + "uniform_forked_points_per_sec",
                u_forked.pointsPerSec, "points/s");
        rec.add(pre + "uniform_speedup",
                u_scratch.seconds / u_forked.seconds, "x");
    }

    rec.add("frontier_points", static_cast<double>(kPoints));
    rec.add("snapshot_stride", static_cast<double>(kSnapStride));
    rec.add("largest_trace_speedup", largest_speedup, "x");
    rec.write();

    std::printf("\nlargest trace: %.1fx end-to-end "
                "(census + %zu frontier points)\n",
                largest_speedup, kPoints);
    return 0;
}
