#include "check/runner.hh"

#include <sstream>

#include "isa/assembler.hh"

namespace nvmr
{

namespace
{

/** Census helper: BackupCommit timestamps without ring-buffer
 *  pressure from the high-rate checker-feed events. */
class CommitCycleSink : public TraceSink
{
  public:
    std::vector<uint64_t> cycles;

    void
    consume(const TraceEvent &ev) override
    {
        if (ev.kind == EventKind::BackupCommit)
            cycles.push_back(ev.cycle);
    }
};

/** Reference-pass collector: machine snapshot + invariant-checker
 *  state at every `stride`th clean safe point. Stops capturing once
 *  the checker flags anything -- a violating prefix must be re-run
 *  from scratch to reproduce its report. */
class CheckRefSink : public SnapshotSink
{
  public:
    CheckRefSink(CheckReference &out_, uint64_t stride_)
        : out(out_), stride(stride_ ? stride_ : 1)
    {}

    /** The checker attached to the same run (bound after the
     *  simulator exists; RunOptions are copied at construction). */
    void bind(InvariantSink *inv_) { inv = inv_; }

    void
    onSnapshotPoint(Simulator &sim) override
    {
        uint64_t seen = points++;
        if (seen % stride != 0 || !inv || !inv->clean())
            return;
        out.snapshots.push_back(
            std::make_shared<MachineSnapshot>(sim.captureSnapshot()));
        ByteWriter w;
        inv->saveState(w);
        out.invStates.push_back(w.take());
    }

  private:
    InvariantSink *inv = nullptr;
    CheckReference &out;
    uint64_t stride;
    uint64_t points = 0;
};

} // namespace

CheckPlatform::CheckPlatform(const CheckCase &c)
    // Small capacitors need the co-sized platform (atomic backups
    // must fit one charge); every checked tool runs a case on this
    // platform, so a repro transfers between them unchanged.
    : cfg(c.farads < 1e-3 ? SystemConfig::smallPlatform()
                          : SystemConfig{}),
      trace(c.traceKind, c.traceSeed, c.traceMeanMw)
{
    cfg.capacitorFarads = c.farads;
    cfg.mapTableEntries = 64;
    cfg.mtCacheEntries = 16;
    cfg.mtCacheWays = 4;
    if (c.byteLbf)
        cfg.cache.lbfGranularityBytes = 1;
    cfg.injectedBug = c.injectedBug;

    PolicySpec spec;
    spec.kind = c.policy;
    if (c.farads < 1e-3)
        spec.watchdogPeriod = 300;
    policy = makePolicy(spec);

    opts.maxCycles = c.maxCycles;
    opts.faults = c.faults;
    opts.cancel = c.cancel;
    opts.engine = c.engine;
    opts.validate = false;
}

std::string
CheckOutcome::describe() const
{
    if (clean())
        return "clean";
    if (!run.completed)
        return "did not complete (stuck or starved)";
    if (totalViolations > 0)
        return "invariant violation: " + violations.front().checker +
               " (" + std::to_string(totalViolations) + " total)";
    std::ostringstream os;
    os << "diverged from oracle: " << diff.totalWordDiffs
       << " word(s)";
    if (!diff.regMismatches.empty())
        os << ", " << diff.regMismatches.size() << " register(s)";
    if (diff.pcMismatch)
        os << ", pc";
    return os.str();
}

std::string
CheckOutcome::detail() const
{
    std::ostringstream os;
    for (const auto &w : diff.words)
        os << "  word 0x" << std::hex << w.addr << ": oracle 0x"
           << w.expect << ", recovered 0x" << w.actual << std::dec
           << "\n";
    if (diff.totalWordDiffs > diff.words.size())
        os << "  ... and "
           << (diff.totalWordDiffs - diff.words.size())
           << " further diverging words\n";
    for (unsigned r : diff.regMismatches)
        os << "  register r" << r << " diverged\n";
    if (diff.pcMismatch)
        os << "  final pc diverged\n";
    for (const auto &v : violations)
        os << "  [" << v.checker << "] cycle " << v.cycle << " ("
           << v.event << "): " << v.detail << "\n";
    if (totalViolations > violations.size())
        os << "  ... and " << (totalViolations - violations.size())
           << " further violations\n";
    return os.str();
}

CheckReference
runReference(const CheckCase &c, uint64_t stride)
{
    // Same run as the case, minus the crash schedule. Bit-error
    // knobs stay: the injector's rng stream is part of the prefix a
    // fork must reproduce.
    CheckCase ref_case = c;
    ref_case.faults.crashAtPersist = 0;
    ref_case.faults.crashAtCycle = 0;
    ref_case.faults.crashPersists.clear();
    ref_case.faults.crashCycles.clear();

    Program prog = assemble(ref_case.name, ref_case.programText);
    CheckPlatform plat(ref_case);

    CheckReference out;
    CheckRefSink collector(out, stride);
    plat.opts.snapshots = &collector;
    Simulator sim(prog, ref_case.arch, plat.cfg, *plat.policy,
                  plat.trace, plat.opts);
    InvariantSink inv(sim.archRef(), plat.cfg);
    sim.attachTrace(&inv);
    collector.bind(&inv);
    out.completed = sim.run().completed;
    return out;
}

CheckOutcome
runChecked(const CheckCase &c, const OracleResult *oracle,
           const CheckReference *ref)
{
    Program prog = assemble(c.name, c.programText);
    CheckPlatform plat(c);

    // Fork mid-trace when a usable reference snapshot precedes every
    // armed crash point.
    ptrdiff_t fork = ref ? forkSource(ref->snapshots, c.faults) : -1;
    if (fork >= 0)
        plat.opts.resumeFrom = ref->snapshots[fork].get();

    Simulator sim(prog, c.arch, plat.cfg, *plat.policy, plat.trace,
                  plat.opts);
    InvariantSink inv(sim.archRef(), plat.cfg);
    sim.attachTrace(&inv);
    if (fork >= 0) {
        ByteReader r(ref->invStates[fork]);
        inv.restoreState(r);
        finishRestore(r);
    }

    CheckOutcome out;
    out.run = sim.run();
    inv.finalize();
    out.violations = inv.violations();
    out.totalViolations = inv.totalViolations();

    // A mid-execution image legitimately differs from the oracle's
    // final state; the diff only means something for completed runs.
    if (out.run.completed) {
        OracleResult local;
        if (!oracle) {
            local = runOracle(prog);
            oracle = &local;
        }
        out.diff = diffFinalState(sim.archRef(), prog, *oracle,
                                  &sim.cpuRef());
    }
    return out;
}

CensusResult
runCensus(const CheckCase &c)
{
    CheckCase census = c;
    census.faults = FaultConfig{};
    census.faults.enabled = true; // count persists, inject nothing

    Program prog = assemble(census.name, census.programText);
    CheckPlatform plat(census);
    Simulator sim(prog, census.arch, plat.cfg, *plat.policy, plat.trace,
                  plat.opts);
    CommitCycleSink commits;
    sim.attachTrace(&commits);
    RunResult r = sim.run();

    CensusResult out;
    out.completed = r.completed;
    out.totalCycles = r.totalCycles;
    out.persistPoints = sim.faultInjector().stats().persistPoints;
    out.windows = sim.faultInjector().backupWindows();
    out.commitCycles = std::move(commits.cycles);
    return out;
}

} // namespace nvmr
