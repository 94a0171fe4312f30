/**
 * @file
 * Grid-sweep driver with CSV output: run every workload across a
 * grid of architectures, policies and capacitor sizes and emit one
 * CSV row per cell, ready for plotting. This is the generic
 * companion to the fixed per-figure harnesses in bench/.
 *
 *     nvmr_sweep > sweep.csv
 *     nvmr_sweep --traces 3 --archs clank,nvmr --caps 0.1,0.0075
 *     nvmr_sweep --workloads hist --stats-json sweep.json
 *     nvmr_sweep --jobs 8                      # worker count
 *     nvmr_sweep --engine interp               # execution engine
 *     nvmr_sweep --journal sweep.jrn           # checkpoint cells
 *     nvmr_sweep --resume sweep.jrn            # skip finished cells
 *     nvmr_sweep --watchdog-cycles 50000000    # quarantine hangs
 *     nvmr_sweep --metrics live.json           # heartbeat snapshots
 *     nvmr_sweep --prof-json spans.json        # host span profile
 *
 * The work-list runs through the campaign layer (docs/operations.md):
 * every finished cell is journaled, a SIGKILL'd sweep resumes with
 * byte-identical merged output, hung cells are retried then
 * quarantined into the manifest, and SIGINT/SIGTERM flush a partial
 * manifest before exiting 128+signal.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/cellio.hh"
#include "campaign/sig.hh"
#include "cli.hh"
#include "common/exitcodes.hh"
#include "common/log.hh"
#include "obs/manifest.hh"
#include "par/par.hh"
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

std::vector<std::string>
splitList(const std::string &value)
{
    std::vector<std::string> out;
    std::stringstream ss(value);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
joinList(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &s : items) {
        if (!out.empty())
            out += ',';
        out += s;
    }
    return out;
}

/** --traces: a whole number in [1, 10], the rule serve::parseJobText
 *  applies to a job's "traces". */
int
parseTraceCount(const char *text)
{
    char *end = nullptr;
    long n = std::strtol(text, &end, 10);
    fatal_if(end == text || *end || n < 1 || n > 10,
             "--traces must be a whole number in [1, 10], got '", text,
             "'");
    return static_cast<int>(n);
}

/** --caps: a non-empty list of positive capacitances in farads. */
std::vector<double>
parseCaps(const char *text)
{
    std::vector<double> caps;
    for (const std::string &c : splitList(text)) {
        char *end = nullptr;
        double f = std::strtod(c.c_str(), &end);
        fatal_if(end == c.c_str() || *end || !std::isfinite(f) ||
                     f <= 0,
                 "--caps values must be positive numbers, got '", c,
                 "'");
        caps.push_back(f);
    }
    fatal_if(caps.empty(), "--caps needs at least one capacitance");
    return caps;
}

PolicyKind
parseSweepPolicy(const std::string &name)
{
    PolicyKind kind = cli::parsePolicyKind(name);
    fatal_if(kind == PolicyKind::Spendthrift,
             "spendthrift needs offline training (see nvmr_train); "
             "valid here: jit, watchdog, none");
    return kind;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    int num_traces = 5;
    std::vector<std::string> archs = {"clank", "nvmr", "hoop"};
    std::vector<std::string> policies = {"jit", "watchdog"};
    // "none" is also accepted (task-based runs).
    std::vector<double> caps = {0.1};
    std::vector<std::string> workloads;
    std::string stats_json_path;
    campaign::Options copts;
    obs::TelemetryOptions topts;

    auto need = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            fatal("missing value for ", argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        if (cli::handleJobsArg(argc, argv, i))
            continue;
        if (cli::handleEngineArg(argc, argv, i))
            continue;
        if (cli::handleCampaignArg(argc, argv, i, copts))
            continue;
        if (cli::handleTelemetryArg(argc, argv, i, topts))
            continue;
        std::string a = argv[i];
        if (a == "--traces") {
            num_traces = parseTraceCount(need(i));
        } else if (a == "--archs") {
            archs = splitList(need(i));
        } else if (a == "--policies") {
            policies = splitList(need(i));
        } else if (a == "--caps") {
            caps = parseCaps(need(i));
        } else if (a == "--workloads") {
            workloads = splitList(need(i));
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else {
            fatal("unknown argument '", a, "'");
        }
    }
    if (workloads.empty())
        for (const WorkloadInfo &w : allWorkloads())
            workloads.push_back(w.name);

    // Validate the whole grid before running anything: a typo in the
    // last arch name should not surface hours into the sweep.
    std::vector<ArchKind> arch_kinds;
    for (const std::string &name : archs)
        arch_kinds.push_back(cli::parseArchKind(name));
    std::vector<PolicyKind> policy_kinds;
    for (const std::string &name : policies)
        policy_kinds.push_back(parseSweepPolicy(name));

    auto traces = HarvestTrace::standardSet(num_traces);
    ManifestWriter manifest("nvmr_sweep");

    // Canonical config spec: everything that shapes the work-list or
    // the per-cell results gates --resume (not --jobs, not paths).
    std::string config_spec = "sweep|traces=" +
                              std::to_string(num_traces) +
                              "|archs=" + joinList(archs) +
                              "|policies=" + joinList(policies);
    config_spec += "|caps=";
    for (size_t i = 0; i < caps.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "",
                      caps[i]);
        config_spec += buf;
    }
    config_spec += "|workloads=" + joinList(workloads);
    cli::appendWatchdogSpec(config_spec, copts);

    // Host telemetry (off by default): heartbeat snapshots + span
    // profile go to their own files, never into the CSV or manifest.
    obs::Telemetry telemetry("nvmr_sweep", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_sweep", config_spec, copts);

    // Flatten the grid into independent cells. Programs are assembled
    // up front -- workers must not race the assembler caches -- but
    // only for workloads that still have fresh cells to run.
    struct Cell
    {
        size_t wl, ai, pi;
        double farads;
    };
    std::vector<Cell> cells;
    for (size_t wi = 0; wi < workloads.size(); ++wi)
        for (size_t ai = 0; ai < arch_kinds.size(); ++ai)
            for (size_t pi = 0; pi < policy_kinds.size(); ++pi)
                for (double farads : caps)
                    cells.push_back(Cell{wi, ai, pi, farads});

    std::vector<Program> programs(workloads.size());
    std::vector<char> needed(workloads.size(), 0);
    for (size_t i = 0; i < cells.size(); ++i)
        if (!cam.cellDone("grid", i))
            needed[cells[i].wl] = 1;
    for (size_t wi = 0; wi < workloads.size(); ++wi)
        if (needed[wi])
            programs[wi] = assembleWorkload(workloads[wi]);

    auto cell_results = cam.runStage(
        "grid", cells.size(),
        [&](const campaign::CellContext &ctx)
            -> std::optional<std::string> {
            const Cell &c = cells[ctx.index];
            SystemConfig cfg;
            cfg.capacitorFarads = c.farads;
            PolicySpec spec;
            spec.kind = policy_kinds[c.pi];
            RunOptions ropts;
            if (ctx.budgetCycles)
                ropts.maxCycles = ctx.budgetCycles;
            auto runs = runOnTraces(programs[c.wl], arch_kinds[c.ai],
                                    cfg, spec, traces, ropts);
            if (ctx.budgetCycles)
                for (const RunResult &r : runs)
                    if (!r.completed)
                        throw campaign::CellTimeout{
                            workloads[c.wl] + "/" + archs[c.ai] +
                            "/" + policies[c.pi] + " exceeded " +
                            std::to_string(ctx.budgetCycles) +
                            " cycles on trace " + r.trace};
            return campaign::encodeRunResults(runs);
        });

    std::printf(
        "workload,arch,policy,capacitor_f,total_uj,forward_uj,"
        "overhead_uj,backup_uj,restore_uj,reclaim_uj,dead_uj,"
        "backups,violations,renames,reclaims,power_failures,"
        "nvm_writes,max_wear,completed,validated\n");

    if (!cells.empty()) {
        SystemConfig cfg;
        cfg.capacitorFarads = cells[0].farads;
        manifest.setConfig(cfg);
    }
    for (size_t i = 0; i < cells.size(); ++i) {
        if (cell_results[i].status != campaign::CellStatus::Done)
            continue; // quarantined or interrupt-skipped: no row
        const Cell &c = cells[i];
        std::vector<RunResult> runs;
        fatal_if(!campaign::decodeRunResults(cell_results[i].payload,
                                             runs),
                 "corrupt journal payload for sweep cell ", i);
        Aggregate a = aggregate(runs);
        if (!stats_json_path.empty())
            for (const RunResult &r : runs)
                manifest.addRun(r);
        std::printf(
            "%s,%s,%s,%g,%.2f,%.2f,%.2f,%.2f,%.2f,"
            "%.2f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,"
            "%.0f,%d,%d\n",
            workloads[c.wl].c_str(), archs[c.ai].c_str(),
            policies[c.pi].c_str(), c.farads,
            a.totalEnergyNj / 1000.0,
            a.energyOf(ECat::Forward) / 1000.0,
            (a.energyOf(ECat::ForwardOverhead) +
             a.energyOf(ECat::BackupOverhead) +
             a.energyOf(ECat::RestoreOverhead)) /
                1000.0,
            a.energyOf(ECat::Backup) / 1000.0,
            a.energyOf(ECat::Restore) / 1000.0,
            a.energyOf(ECat::Reclaim) / 1000.0,
            a.energyOf(ECat::Dead) / 1000.0, a.backups,
            a.violations, a.renames, a.reclaims,
            a.powerFailures, a.nvmWrites, a.maxWear,
            a.allCompleted ? 1 : 0, a.allValidated ? 1 : 0);
    }
    int rc = kExitOk;
    if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
        warn("error writing CSV to stdout");
        rc = kExitDegraded;
    }

    for (const auto &q : cam.quarantined())
        warn("quarantined cell ", q.index, " (",
             workloads[cells[q.index].wl], "/",
             archs[cells[q.index].ai], "/",
             policies[cells[q.index].pi], ") after ", q.attempts,
             " attempt(s): ", q.reason);

    if (!stats_json_path.empty()) {
        manifest.addExtra("cells",
                          static_cast<double>(cells.size()));
        manifest.addExtra("traces_per_cell",
                          static_cast<double>(traces.size()));
        manifest.addExtraJson(
            "quarantine",
            cam.quarantineJson([&](const campaign::QuarantineEntry &q) {
                const Cell &c = cells[q.index];
                return workloads[c.wl] + "/" + archs[c.ai] + "/" +
                       policies[c.pi];
            }));
        if (!manifest.tryWriteFile(stats_json_path))
            rc = kExitDegraded;
    }
    return cam.exitCode(rc);
}
