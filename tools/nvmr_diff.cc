/**
 * @file
 * Differential oracle driver: prove every architecture recovers a
 * correct final state under hostile power schedules. For each
 * architecture it runs a census of where backups commit, generates
 * adversarial crash schedules aimed at those instants (plus brownout
 * storms and window-coverage random schedules), and runs every
 * schedule under the lockstep invariant checker, diffing the
 * recovered final state word-by-word against the golden reference
 * interpreter.
 *
 *     nvmr_diff                         # full campaign (1000/arch)
 *     nvmr_diff --schedules 200         # smaller campaign
 *     nvmr_diff --arch nvmr --seed 7    # one architecture, new program
 *     nvmr_diff --smoke                 # 1 schedule/arch (ctest)
 *     nvmr_diff --replay case.repro     # re-run a saved failure
 *     nvmr_diff --shrink case.repro out.repro   # minimize a failure
 *     nvmr_diff --bug rename_alias      # seeded-bug demo: catch,
 *                                       # shrink, save a .repro
 *     nvmr_diff --jobs 8                # worker count (or NVMR_JOBS)
 *     nvmr_diff --engine interp         # engine (or NVMR_ENGINE)
 *     nvmr_diff --journal d.jrn         # checkpoint; --resume d.jrn
 *     nvmr_diff --metrics m.json        # heartbeat snapshots
 *
 * Any failure saves a self-contained `.repro` file and prints the
 * one-line replay command; exit status is non-zero (1 for a
 * divergence, 2 for usage errors, 3 for quarantined cells,
 * 128+signal when interrupted -- see docs/operations.md).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/sig.hh"
#include "check/runner.hh"
#include "check/schedule.hh"
#include "check/shrink.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "isa/assembler.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/randprog.hh"

using namespace nvmr;

namespace
{

struct BaseConfig
{
    PolicyKind policy;
    double farads;
    bool byteLbf = false;
};

/** Per-architecture base platforms (mirrors the fuzzer's grid; the
 *  ideal baseline is only safe under perfect JIT). */
std::vector<BaseConfig>
baseConfigs(ArchKind arch)
{
    if (arch == ArchKind::Ideal)
        return {{PolicyKind::Jit, 0.1}};
    std::vector<BaseConfig> out = {
        {PolicyKind::Jit, 0.1},
        {PolicyKind::Watchdog, 500e-6},
    };
    if (arch == ArchKind::Clank || arch == ArchKind::Nvmr)
        out.push_back({PolicyKind::Watchdog, 500e-6, true});
    return out;
}

CheckCase
makeBaseCase(ArchKind arch, const BaseConfig &bc, uint64_t seed,
             InjectedBug bug)
{
    CheckCase c;
    c.name = std::string(archKindName(arch)) + "-s" +
             std::to_string(seed);
    c.arch = arch;
    c.policy = bc.policy;
    c.farads = bc.farads;
    c.byteLbf = bc.byteLbf;
    c.injectedBug = bug;
    c.traceSeed = 40000 + seed;
    c.programText = makeRandomProgram(seed);
    c.programSeed = seed;
    return c;
}

void
reportFailure(const CheckCase &c, const CheckOutcome &out,
              const std::string &repro_path)
{
    std::printf("\nFAILURE: %s on %s/%s at %g F: %s\n", c.name.c_str(),
                archKindName(c.arch), policyKindName(c.policy),
                c.farads, out.describe().c_str());
    std::fputs(out.detail().c_str(), stdout);
    if (saveRepro(repro_path, c))
        std::printf("repro saved; replay with: nvmr_diff --replay %s\n"
                    "minimize with: nvmr_diff --shrink %s\n",
                    repro_path.c_str(), repro_path.c_str());
    else
        std::printf("could not save %s\n", repro_path.c_str());
}

/** Run every adversarial schedule of one base case. */
bool
runBase(campaign::Campaign &cam, const std::string &tag,
        const CheckCase &base, uint32_t budget, uint64_t gen_seed,
        uint64_t *runs, uint64_t *failures,
        const std::string &repro_path)
{
    // The census is one journaled cell of its own, so a resumed
    // campaign regenerates the schedule list from the journal instead
    // of re-running the mapping pass. A census that cannot complete
    // is a tool-level failure (never journaled); under a watchdog
    // budget it is retried and quarantined like any other cell.
    auto census_cells = cam.runStage(
        tag + "/census", 1,
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            CheckCase c = base;
            if (ctx.budgetCycles)
                c.maxCycles = ctx.budgetCycles;
            CensusResult r = runCensus(c);
            if (ctx.budgetCycles && !r.completed)
                throw campaign::CellTimeout{
                    base.name + " census exceeded " +
                    std::to_string(ctx.budgetCycles) + " cycles"};
            if (!r.completed)
                return std::nullopt;
            return campaign::encodeCensus(r);
        });
    if (census_cells[0].status == campaign::CellStatus::Skipped ||
        census_cells[0].status == campaign::CellStatus::Quarantined)
        return true; // interrupted / reported via quarantine list
    if (census_cells[0].status != campaign::CellStatus::Done) {
        std::printf("census run of %s did not complete; treating as "
                    "failure\n",
                    base.name.c_str());
        ++*failures;
        return false;
    }
    CensusResult census;
    fatal_if(!campaign::decodeCensus(census_cells[0].payload, census),
             "corrupt journal payload for ", tag, " census");

    ScheduleGenParams params;
    params.budget = budget;
    params.seed = gen_seed;
    std::vector<CheckCase> schedules =
        makeAdversarialSchedules(base, census, params);

    // Precompute the shared read-only oracle only when a schedule
    // still has to run (a fully-journaled base skips it entirely).
    std::string sched_stage = tag + "/sched";
    bool any_fresh = false;
    for (size_t i = 0; i < schedules.size() && !any_fresh; ++i)
        any_fresh = !cam.cellDone(sched_stage, i);
    OracleResult oracle;
    if (any_fresh)
        oracle = runOracle(assemble(base.name, base.programText));

    // Failure detail rides in this side table; clean cells journal an
    // "ok" marker, failures are never journaled so a resume re-runs
    // and reproduces them. Outcomes are scanned in schedule order so
    // the failure reported (and the run count at that point) is the
    // one a serial campaign would have hit first.
    std::vector<CheckOutcome> outs(schedules.size());
    par::Progress progress("diff:" + base.name, schedules.size());
    auto results = cam.runStage(
        sched_stage, schedules.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            CheckCase c = schedules[ctx.index];
            if (ctx.budgetCycles)
                c.maxCycles = ctx.budgetCycles;
            CheckOutcome out = runChecked(c, &oracle);
            if (ctx.budgetCycles && !out.clean() &&
                !out.run.completed)
                throw campaign::CellTimeout{
                    base.name + " schedule " +
                    std::to_string(ctx.index) + " exceeded " +
                    std::to_string(ctx.budgetCycles) + " cycles"};
            if (!out.clean()) {
                outs[ctx.index] = std::move(out);
                return std::nullopt;
            }
            return std::string("ok");
        },
        &progress);
    progress.finish();
    for (size_t i = 0; i < results.size(); ++i) {
        switch (results[i].status) {
          case campaign::CellStatus::Done:
            ++*runs;
            break;
          case campaign::CellStatus::Quarantined:
            break; // reported at the end of the campaign
          case campaign::CellStatus::Skipped:
            return true; // interrupted; caller checks
          case campaign::CellStatus::Failed:
            ++*runs;
            ++*failures;
            reportFailure(schedules[i], outs[i], repro_path);
            return false;
        }
    }
    return true;
}

int
runCampaign(campaign::Campaign &cam,
            const std::vector<ArchKind> &archs, uint32_t per_arch,
            uint64_t seed, InjectedBug bug, bool smoke,
            const std::string &stats_json)
{
    uint64_t runs = 0;
    uint64_t failures = 0;
    bool clean = true;
    for (ArchKind arch : archs) {
        if (cam.interrupted())
            break;
        auto bases = baseConfigs(arch);
        if (smoke)
            bases.resize(1);
        uint32_t per_base = std::max<uint32_t>(
            1, per_arch / static_cast<uint32_t>(bases.size()));
        uint64_t arch_runs_before = runs;
        for (size_t bi = 0;
             bi < bases.size() && clean && !cam.interrupted(); ++bi) {
            // Give the last base config the budget remainder so the
            // per-architecture total meets the request exactly.
            uint32_t budget = per_base;
            if (bi + 1 == bases.size() &&
                per_base * bases.size() < per_arch)
                budget = per_arch -
                         per_base * (static_cast<uint32_t>(
                                         bases.size()) -
                                     1);
            CheckCase base =
                makeBaseCase(arch, bases[bi], seed, bug);
            std::string tag = std::string(archKindName(arch)) + "-b" +
                              std::to_string(bi);
            clean &= runBase(cam, tag, base, budget, seed * 31 + bi,
                             &runs, &failures,
                             "nvmr_diff_failure.repro");
        }
        if (cam.interrupted())
            break;
        std::printf("%s: %llu schedules, %s\n", archKindName(arch),
                    static_cast<unsigned long long>(
                        runs - arch_runs_before),
                    clean ? "all clean" : "FAILED");
        if (!clean)
            break;
    }
    if (cam.interrupted())
        std::printf("interrupted: %llu checked runs checkpointed\n",
                    static_cast<unsigned long long>(runs));
    else if (clean)
        std::printf("campaign done: %llu checked runs, zero "
                    "divergences, zero invariant violations\n",
                    static_cast<unsigned long long>(runs));
    for (const auto &q : cam.quarantined())
        warn("quarantined ", q.stage, "/", q.index, " after ",
             q.attempts, " attempt(s): ", q.reason);
    int rc = kExitOk;
    if (!stats_json.empty()) {
        ManifestWriter manifest("nvmr_diff");
        manifest.addExtra("runs", static_cast<double>(runs));
        manifest.addExtra("failures",
                          static_cast<double>(failures));
        manifest.addExtra("result",
                          cam.interrupted() ? "interrupted"
                          : clean           ? "clean"
                                            : "divergence");
        manifest.addExtraJson("quarantine", cam.quarantineJson());
        if (!manifest.tryWriteFile(stats_json))
            rc = kExitDegraded;
    }
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing to stdout");
        rc = kExitDegraded;
    }
    if (!clean)
        rc = kExitMismatch;
    return cam.exitCode(rc);
}

int
replay(const std::string &path)
{
    CheckCase c;
    std::string error;
    if (!loadRepro(path, c, error)) {
        std::fprintf(stderr, "cannot load %s: %s\n", path.c_str(),
                     error.c_str());
        return 2;
    }
    CheckOutcome out = runChecked(c);
    std::printf("%s: %s\n", c.name.c_str(), out.describe().c_str());
    std::fputs(out.detail().c_str(), stdout);
    return out.clean() ? 0 : 1;
}

int
shrink(const std::string &in_path, const std::string &out_path)
{
    CheckCase c;
    std::string error;
    if (!loadRepro(in_path, c, error)) {
        std::fprintf(stderr, "cannot load %s: %s\n", in_path.c_str(),
                     error.c_str());
        return 2;
    }
    ShrinkResult r = shrinkCase(c);
    if (!r.verifiedFailing) {
        std::printf("case is clean; nothing to shrink (%u runs)\n",
                    r.runsUsed);
        return 1;
    }
    if (!saveRepro(out_path, r.minimized)) {
        std::fprintf(stderr, "cannot save %s\n", out_path.c_str());
        return 2;
    }
    size_t crashes = r.minimized.faults.crashPersists.size() +
                     r.minimized.faults.crashCycles.size();
    std::printf("shrunk to %zu crash point(s), %zu program bytes in "
                "%u runs; saved %s\n",
                crashes, r.minimized.programText.size(), r.runsUsed,
                out_path.c_str());
    std::printf("replay with: nvmr_diff --replay %s\n",
                out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    uint32_t per_arch = 1000;
    uint64_t seed = 1;
    InjectedBug bug = InjectedBug::None;
    std::string only_arch;
    std::string stats_json;
    bool smoke = false;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    for (int i = 1; i < argc; ++i) {
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for ", flag);
            return argv[++i];
        };
        if (cli::handleJobsArg(argc, argv, i)) {
        } else if (cli::handleEngineArg(argc, argv, i)) {
        } else if (cli::handleCampaignArg(argc, argv, i, copts)) {
        } else if (cli::handleTelemetryArg(argc, argv, i, topts)) {
        } else if (std::strcmp(argv[i], "--schedules") == 0) {
            const char *v = need("--schedules");
            uint64_t n = cli::parseCount("--schedules", v);
            fatal_if(n == 0 || n > UINT32_MAX, "bad --schedules value '",
                     v, "' (need 1 to ", UINT32_MAX, ")");
            per_arch = static_cast<uint32_t>(n);
        } else if (std::strcmp(argv[i], "--seed") == 0) {
            seed = cli::parseCount("--seed", need("--seed"));
        } else if (std::strcmp(argv[i], "--arch") == 0) {
            only_arch = need("--arch");
        } else if (std::strcmp(argv[i], "--stats-json") == 0) {
            stats_json = need("--stats-json");
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--replay") == 0) {
            return replay(need("--replay"));
        } else if (std::strcmp(argv[i], "--shrink") == 0) {
            std::string in = need("--shrink");
            std::string out = i + 1 < argc && argv[i + 1][0] != '-'
                                  ? argv[++i]
                                  : in + ".min";
            return shrink(in, out);
        } else if (std::strcmp(argv[i], "--bug") == 0) {
            std::string v = need("--bug");
            if (v == "rename_alias")
                bug = InjectedBug::RenameAlias;
            else if (v == "freelist_leak")
                bug = InjectedBug::FreeListLeak;
            else
                fatal("unknown --bug ", v,
                      " (rename_alias | freelist_leak)");
        } else {
            fatal("unknown argument ", argv[i]);
        }
    }

    std::vector<ArchKind> archs;
    if (!only_arch.empty()) {
        ArchKind k;
        if (!archKindFromName(only_arch, k))
            fatal("unknown architecture ", only_arch);
        archs.push_back(k);
    } else {
        archs = {ArchKind::Nvmr,  ArchKind::Clank,
                 ArchKind::ClankOriginal, ArchKind::Hoop,
                 ArchKind::Task,  ArchKind::Ideal};
    }
    if (bug != InjectedBug::None) {
        // Seeded bugs live in the renaming layer.
        archs = {ArchKind::Nvmr};
    }

    std::string config_spec = "diff|archs=";
    for (size_t i = 0; i < archs.size(); ++i) {
        if (i)
            config_spec += ',';
        config_spec += archKindName(archs[i]);
    }
    config_spec += "|schedules=" +
                   std::to_string(smoke ? 1 : per_arch) +
                   "|seed=" + std::to_string(seed) +
                   "|bug=" + std::to_string(static_cast<int>(bug)) +
                   "|smoke=" + std::to_string(smoke ? 1 : 0);
    cli::appendWatchdogSpec(config_spec, copts);

    obs::Telemetry telemetry("nvmr_diff", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_diff", config_spec, copts);

    return runCampaign(cam, archs, smoke ? 1 : per_arch, seed, bug,
                       smoke, stats_json);
}
