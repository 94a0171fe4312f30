/**
 * @file
 * Offline Spendthrift training (Section 5.2): run the JIT oracle on
 * the training traces for one architecture, train the 2-8-8-1 MLP on
 * the labelled samples, report held-out accuracy and save the model
 * for nvmr_sim's `--policy spendthrift --model` flag.
 *
 *     nvmr_train clank.model -a clank
 *     nvmr_train nvmr.model -a nvmr -w hist,dwt,adpcm_encode --cap 0.0075
 *     nvmr_train nvmr.model -a nvmr --journal t.jrn   # checkpoint
 *     nvmr_train nvmr.model --stats-json train.json   # run manifest
 *
 * Sample collection runs through the campaign layer
 * (docs/operations.md): each (workload, trace) cell's samples are
 * journaled, so a killed run resumes with the identical sample set
 * and therefore the identical trained model.
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
#include "sim/experiment.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

int
main(int argc, char **argv)
{
    setQuiet(true);
    campaign::installSignalHandlers();
    std::string out_path;
    std::string arch_name = "clank";
    std::vector<std::string> workloads = {"hist", "dwt",
                                          "adpcm_encode"};
    double cap = 7.5e-3; // small enough that the oracle fires often
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
        if (a == "-a" || a == "--arch") {
            arch_name = need(i);
        } else if (a == "-w" || a == "--workloads") {
            workloads.clear();
            std::stringstream ss(need(i));
            std::string item;
            while (std::getline(ss, item, ','))
                workloads.push_back(item);
        } else if (a == "--cap") {
            const char *v = need(i);
            char *end = nullptr;
            cap = std::strtod(v, &end);
            fatal_if(end == v || *end || !std::isfinite(cap) || cap <= 0,
                     "bad --cap value '", v,
                     "' (need a finite number of farads above 0)");
        } else if (a == "--stats-json") {
            stats_json_path = need(i);
        } else if (a[0] == '-') {
            fatal("unknown argument '", a, "'");
        } else {
            out_path = a;
        }
    }
    fatal_if(out_path.empty(),
             "usage: nvmr_train OUT.model [-a arch] [-w w1,w2] "
             "[--cap F] [--engine NAME]");

    ArchKind arch;
    if (arch_name == "clank")
        arch = ArchKind::Clank;
    else if (arch_name == "nvmr")
        arch = ArchKind::Nvmr;
    else if (arch_name == "hoop")
        arch = ArchKind::Hoop;
    else if (arch_name == "clank_original")
        arch = ArchKind::ClankOriginal;
    else
        fatal("unknown architecture '", arch_name, "'");

    SystemConfig cfg;
    cfg.capacitorFarads = cap;

    std::string config_spec = "train|arch=" + arch_name;
    config_spec += "|workloads=";
    for (size_t i = 0; i < workloads.size(); ++i) {
        if (i)
            config_spec += ',';
        config_spec += workloads[i];
    }
    char capbuf[40];
    std::snprintf(capbuf, sizeof(capbuf), "|cap=%.17g", cap);
    config_spec += capbuf;
    cli::appendWatchdogSpec(config_spec, copts);

    obs::Telemetry telemetry("nvmr_train", topts,
                             campaign::interruptRequested);

    campaign::Campaign cam("nvmr_train", config_spec, copts);

    ManifestWriter manifest("nvmr_train");
    manifest.setConfig(cfg);
    // Shared manifest tail: quarantine + result verdict, written on
    // the normal exit AND the interrupt path (like the siblings).
    int manifest_rc = kExitOk;
    auto writeManifest = [&](const std::string &result) {
        if (stats_json_path.empty())
            return;
        manifest.addExtra("arch", arch_name);
        manifest.addExtra("workloads",
                          static_cast<double>(workloads.size()));
        manifest.addExtra("result", result);
        manifest.addExtraJson(
            "quarantine",
            cam.quarantineJson([&](const campaign::QuarantineEntry &q) {
                size_t per_wl = q.stage == "train"
                                    ? HarvestTrace::trainingSet().size()
                                    : HarvestTrace::testSet().size();
                return workloads[q.index / per_wl] + "/" + q.stage;
            }));
        if (!manifest.tryWriteFile(stats_json_path))
            manifest_rc = kExitDegraded;
    };

    auto train_traces = HarvestTrace::trainingSet();
    auto test_traces = HarvestTrace::testSet();

    // One cell per (workload, trace), workload-major -- the same
    // canonical order the serial collector appended in, so the
    // concatenated sample set (and thus the trained model) is
    // identical with any worker count, with or without a resume.
    auto collectStage = [&](const std::string &stage,
                            const std::vector<Program> &programs,
                            const std::vector<HarvestTrace> &traces) {
        return cam.runStage(
            stage, workloads.size() * traces.size(),
            [&](const campaign::CellContext &ctx)
                -> std::optional<std::string> {
                const Program &prog = programs[ctx.index /
                                               traces.size()];
                const HarvestTrace &trace = traces[ctx.index %
                                                   traces.size()];
                bool completed = true;
                auto samples = collectSpendthriftCell(
                    prog, arch, cfg, trace, ctx.budgetCycles,
                    &completed);
                if (ctx.budgetCycles && !completed)
                    throw campaign::CellTimeout{
                        prog.name + "/" + trace.name() +
                        " exceeded " +
                        std::to_string(ctx.budgetCycles) + " cycles"};
                return campaign::encodeSamples(samples);
            });
    };

    // Assemble only the workloads that still have fresh cells.
    std::vector<Program> programs(workloads.size());
    std::vector<char> needed(workloads.size(), 0);
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        for (size_t t = 0; t < train_traces.size(); ++t)
            if (!cam.cellDone("train", wi * train_traces.size() + t))
                needed[wi] = 1;
        for (size_t t = 0; t < test_traces.size(); ++t)
            if (!cam.cellDone("test", wi * test_traces.size() + t))
                needed[wi] = 1;
    }
    for (size_t wi = 0; wi < workloads.size(); ++wi)
        if (needed[wi])
            programs[wi] = assembleWorkload(workloads[wi]);

    std::printf("training on %zu workloads x 7 traces (%s, %g F)\n",
                workloads.size(), arch_name.c_str(), cap);
    auto train_cells = collectStage("train", programs, train_traces);
    auto test_cells = collectStage("test", programs, test_traces);

    if (cam.interrupted()) {
        std::printf("interrupted: %llu cell(s) checkpointed\n",
                    static_cast<unsigned long long>(
                        cam.resumedCells()));
        std::fflush(stdout);
        writeManifest("interrupted");
        return cam.exitCode(kExitOk);
    }

    auto gather = [&](const std::vector<campaign::CellResult> &cells) {
        std::vector<SpendthriftSample> samples;
        for (size_t i = 0; i < cells.size(); ++i) {
            if (cells[i].status != campaign::CellStatus::Done)
                continue; // quarantined cell: samples omitted
            std::vector<SpendthriftSample> part;
            fatal_if(!campaign::decodeSamples(cells[i].payload, part),
                     "corrupt journal payload for training cell ", i);
            samples.insert(samples.end(), part.begin(), part.end());
        }
        return samples;
    };

    auto train_samples = gather(train_cells);
    fatal_if(train_samples.empty(), "no spendthrift training samples");
    balanceSamples(train_samples);
    size_t train_count = train_samples.size();
    auto test_samples = gather(test_cells);
    SpendthriftModel model;
    model.train(train_samples);
    double accuracy = model.accuracy(test_samples);

    model.saveToFile(out_path);
    std::printf("held-out accuracy: %.1f%% (3 test traces)\n",
                accuracy * 100.0);
    std::printf("saved to %s\n", out_path.c_str());
    for (const auto &q : cam.quarantined())
        warn("quarantined ", q.stage, " cell ", q.index, " (",
             workloads[q.index / (q.stage == "train"
                                      ? train_traces.size()
                                      : test_traces.size())],
             ") after ", q.attempts, " attempt(s): ", q.reason);
    manifest.addExtra("train_samples",
                      static_cast<double>(train_count));
    manifest.addExtra("test_samples",
                      static_cast<double>(test_samples.size()));
    manifest.addExtra("accuracy_pct", accuracy * 100.0);
    manifest.addExtra("model_path", out_path);
    writeManifest("trained");
    int rc = manifest_rc;
    if (std::fflush(stdout) != 0 || std::ferror(stdout))
        rc = kExitDegraded;
    return cam.exitCode(rc);
}
