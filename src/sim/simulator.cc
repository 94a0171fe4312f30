#include "sim/simulator.hh"

#include <algorithm>

#include "arch/clank.hh"
#include "arch/clank_original.hh"
#include "arch/hoop.hh"
#include "arch/ideal.hh"
#include "arch/task.hh"
#include "common/log.hh"
#include "core/nvmr_arch.hh"
#include "obs/metrics.hh"

namespace nvmr
{

// ----------------------------------------------------------------------
// Golden (continuous) execution
// ----------------------------------------------------------------------

namespace
{

/** Cooperative cancel poll (RunOptions::cancel); relaxed is enough —
 *  the flag only ever goes false -> true and a late observation just
 *  costs a few more simulated steps. */
inline bool
runCancelled(const RunOptions &opts)
{
    return opts.cancel &&
           opts.cancel->load(std::memory_order_relaxed);
}

/** Flat, energy-free memory for continuously-powered runs. */
class DirectPort : public DataPort
{
  public:
    explicit DirectPort(uint32_t size_bytes) : mem(size_bytes, 0) {}

    void
    loadImage(const std::vector<uint8_t> &image)
    {
        panic_if(image.size() > mem.size(), "image too large");
        std::copy(image.begin(), image.end(), mem.begin());
    }

    Word
    loadWord(Addr addr) override
    {
        check(addr, kWordBytes);
        Word w = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            w |= static_cast<Word>(mem[addr + i]) << (8 * i);
        return w;
    }

    void
    storeWord(Addr addr, Word value) override
    {
        check(addr, kWordBytes);
        for (unsigned i = 0; i < kWordBytes; ++i)
            mem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    }

    uint8_t
    loadByte(Addr addr) override
    {
        check(addr, 1);
        return mem[addr];
    }

    void
    storeByte(Addr addr, uint8_t value) override
    {
        check(addr, 1);
        mem[addr] = value;
    }

    std::vector<uint8_t> takeBytes() { return std::move(mem); }

  private:
    std::vector<uint8_t> mem;

    void
    check(Addr addr, uint32_t n) const
    {
        panic_if(addr + n > mem.size(),
                 "golden run access out of range: ", addr);
    }
};

} // namespace

uint32_t
goldenImageBytes(const Program &prog)
{
    return std::max<uint32_t>(prog.dataSize() + 4096, 65536);
}

GoldenResult
runContinuous(const Program &prog, uint64_t max_instructions)
{
    DirectPort port(goldenImageBytes(prog));
    port.loadImage(prog.data);
    Cpu cpu(prog, port);

    GoldenResult result;
    while (!cpu.halted() && result.instructions < max_instructions) {
        cpu.step();
        ++result.instructions;
    }
    result.halted = cpu.halted();
    for (unsigned i = 0; i < kNumRegs; ++i)
        result.regs[i] = cpu.reg(i);
    result.pc = cpu.pc();
    result.data = port.takeBytes();
    return result;
}

std::shared_ptr<const GoldenResult>
goldenRun(const Program &prog)
{
    return prog.fillOnce(prog._golden,
                         [&] { return runContinuous(prog); });
}

std::unique_ptr<IntermittentArch>
makeArch(ArchKind kind, const SystemConfig &cfg, Nvm &nvm,
         EnergyMeter &meter)
{
    switch (kind) {
      case ArchKind::Ideal:
        return std::make_unique<IdealArch>(cfg, nvm, meter);
      case ArchKind::Clank:
        return std::make_unique<ClankArch>(cfg, nvm, meter);
      case ArchKind::ClankOriginal:
        return std::make_unique<ClankOriginalArch>(cfg, nvm, meter);
      case ArchKind::Task:
        return std::make_unique<TaskArch>(cfg, nvm, meter);
      case ArchKind::Nvmr:
        return std::make_unique<NvmrArch>(cfg, nvm, meter);
      case ArchKind::Hoop:
        return std::make_unique<HoopArch>(cfg, nvm, meter);
      default:
        panic("bad arch kind");
    }
}

// ----------------------------------------------------------------------
// Simulator
// ----------------------------------------------------------------------

Simulator::Simulator(const Program &prog, ArchKind arch_kind,
                     const SystemConfig &config, BackupPolicy &pol,
                     const HarvestTrace &harvest, RunOptions options)
    : program(prog), cfg(config), policy(pol), trace(harvest),
      opts(options), injector(options.faults),
      meter(Capacitor(config.capacitorFarads, config.vMax, config.vOn,
                      config.vOff, config.capScale, config.capExponent),
            config.tech, harvest, injector, config.strictAtomic),
      nvm(config.nvmBytes, config.tech, meter),
      arch(makeArch(arch_kind, config, nvm, meter)), cpu(prog, *arch)
{
    arch->attachHost(this);
    nvm.attachFaults(&injector);
    arch->attachFaults(&injector);
    meter.setMtLeak(dynamic_cast<NvmrArch *>(arch.get()) != nullptr);
    Capacitor &cap = meter.capacitor();
    cap.setVoltage(opts.initialVoltage > 0 ? opts.initialVoltage
                                           : cap.vOnVolts());
    arch->addStat(&backupIntervalHist);
    arch->addStat(&onPeriodHist);
    arch->addStat(&nvmWearHist);
}

void
Simulator::attachTrace(TraceSink *sink_)
{
    tracer = sink_;
    if (sink_)
        sink_->bindClocks(&meter.totalCycles(), &meter.activeCycles());
    arch->attachTrace(sink_);
    cpu.attachTrace(sink_);
    injector.attachTrace(sink_);
    nvm.attachTrace(sink_);
}

// ----------------------------------------------------------------------
// Backup orchestration
// ----------------------------------------------------------------------

void
Simulator::requestBackup(BackupReason reason)
{
    NanoJoules cost = arch->backupCostNowNj();
    if (meter.capacitor().usableNj() < cost)
        throw PowerFailure{}; // cannot afford the backup: die instead

    if (tracer)
        tracer->record(EventKind::BackupBegin,
                       static_cast<uint64_t>(reason));
    injector.noteBackupStart();
    EMode saved = meter.mode();
    meter.setMode(EMode::Backup);
    meter.setAtomic(true);
    arch->beginBackupTxn();
    arch->performBackup(cpu.snapshot(), reason);
    meter.ledger().commitPending();
    meter.setAtomic(false);

    // The backup committed; replay any journaled home writes (crash-
    // safe: a crash here re-replays the journal at restore).
    arch->finishBackupTxn();

    // Post-backup work (NvMR reclamation) is crash-safe per entry and
    // therefore runs outside the atomic section.
    meter.setMode(EMode::Reclaim);
    arch->postBackup(reason);

    meter.setMode(saved);
    injector.noteBackupEnd();
    backupIntervalHist.sample(
        static_cast<double>(meter.activeCycles() - lastBackupActive));
    lastBackupActive = meter.activeCycles();
    if (tracer)
        tracer->record(EventKind::BackupCommit,
                       static_cast<uint64_t>(reason),
                       arch->committedBackupSeq());
    if (opts.snapshots)
        snapPending = true; // capture at the next instruction boundary
}

// ----------------------------------------------------------------------
// Machine snapshots (fork/restore)
// ----------------------------------------------------------------------

void
Simulator::fireSnapshotPoint()
{
    snapPending = false;
    opts.snapshots->onSnapshotPoint(*this);
}

MachineSnapshot
Simulator::captureSnapshot()
{
    panic_if(meter.atomic(), "snapshot inside an atomic section");
    MachineSnapshot snap;
    ByteWriter w;
    cpu.saveState(w);
    meter.saveState(w);
    w.u64(lastBackupActive);
    w.u64(resumeActive);
    w.pod(backupIntervalHist.rawState());
    w.pod(onPeriodHist.rawState());
    w.pod(nvmWearHist.rawState());
    w.u64(policy.saveState());
    nvm.saveState(w);
    injector.saveState(w);
    arch->saveState(w);
    snap.blob = w.take();
    snap.nvmPages = nvm.snapshotPages();
    snap.totalCycles = meter.totalCycles();
    snap.persistCount = injector.stats().persistPoints;
    snap.committedSeq = arch->committedBackupSeq();
    return snap;
}

void
Simulator::restoreSnapshot(const MachineSnapshot &snap)
{
    ByteReader r(snap.blob);
    cpu.restoreState(r);
    meter.restoreState(r);
    lastBackupActive = r.u64();
    resumeActive = r.u64();
    backupIntervalHist.setRawState(r.pod<Histogram::Raw>());
    onPeriodHist.setRawState(r.pod<Histogram::Raw>());
    nvmWearHist.setRawState(r.pod<Histogram::Raw>());
    policy.restoreState(r.u64());
    nvm.restoreState(r);
    injector.restoreState(r, meter.totalCycles());
    arch->restoreState(r);
    finishRestore(r);
    nvm.adoptPages(snap.nvmPages);
    snapPending = false;
}

void
Simulator::hibernate()
{
    // JIT-style policies stop executing after their backup and wait
    // for the supply to recover or die. Volatile state is retained
    // while the capacitor stays above the brown-out voltage.
    if (tracer)
        tracer->record(EventKind::Hibernate);
    Capacitor &cap = meter.capacitor();
    while (true) {
        Cycles step = HarvestTrace::cyclesPerSample;
        meter.idle(step);
        NanoJoules leak = static_cast<double>(step) *
                          cfg.tech.hibernateLeakNjPerCycle;
        cap.drainNj(leak);
        meter.ledger().spendCommitted(ECat::Forward, leak);
        if (cap.dead())
            throw PowerFailure{}; // pending is empty: no dead energy
        if (cap.canTurnOn()) {
            if (tracer)
                tracer->record(EventKind::Wake);
            return; // supply recovered; resume execution
        }
        if (meter.totalCycles() > opts.maxCycles)
            return; // give up; the main loop stops the run
        if (runCancelled(opts)) {
            // Cancelled mid-hibernation: burn the budget so every
            // enclosing wait loop unwinds through its existing
            // give-up path.
            exhaustBudget();
            return;
        }
    }
}

void
Simulator::waitForRecharge(NanoJoules need_nj)
{
    // A restore that costs more than a full capacitor can ever hold
    // (e.g. a HOOP redo log oversized for the platform) will never
    // become affordable: end the run instead of waiting forever.
    Capacitor full(cfg.capacitorFarads, cfg.vMax, cfg.vOn, cfg.vOff,
                   cfg.capScale, cfg.capExponent);
    full.setVoltage(cfg.vMax);
    if (need_nj > full.usableNj()) {
        warn("restore cost ", need_nj,
             " nJ exceeds a full capacitor (", full.usableNj(),
             " nJ); device cannot recover -- size the NVM "
             "structures to the capacitor");
        exhaustBudget();
        return;
    }
    const Capacitor &cap = meter.capacitor();
    while (meter.totalCycles() <= opts.maxCycles) {
        meter.idle(HarvestTrace::cyclesPerSample);
        if (cap.canTurnOn() && cap.usableNj() >= need_nj)
            return;
        if (runCancelled(opts)) {
            exhaustBudget();
            return;
        }
    }
}

void
Simulator::rebootFromReset()
{
    // No backup has ever committed (the initial backup itself was
    // torn): there is nothing to restore. Boot the CPU from its
    // reset state and take the initial backup again -- exactly what
    // a real device does when it dies before its first checkpoint.
    while (meter.totalCycles() <= opts.maxCycles) {
        waitForRecharge(arch->backupCostNowNj() * 1.2 + 100.0);
        if (meter.totalCycles() > opts.maxCycles)
            return;
        cpu.reset();
        lastBackupActive = meter.activeCycles();
        resumeActive = meter.activeCycles();
        try {
            requestBackup(BackupReason::Initial);
            return;
        } catch (PowerFailure &) {
            panic_if(meter.atomic() && cfg.strictAtomic,
                     "power failure inside an atomic operation "
                     "(strict-atomic mode)");
            meter.setMode(EMode::Execute);
            meter.setAtomic(false);
            meter.ledger().pendingToDead();
            arch->onPowerFail();
            if (tracer)
                tracer->record(EventKind::PowerFail);
        }
    }
}

void
Simulator::handlePowerFailure()
{
    // Under --strict-atomic any power loss inside an atomic section
    // -- a genuine brown-out (already fatal in brownOut) or an
    // injected crash -- is the old fatal error.
    panic_if(meter.atomic() && cfg.strictAtomic,
             "power failure inside an atomic operation "
             "(strict-atomic mode)");
    meter.setMode(EMode::Execute);
    meter.setAtomic(false);
    meter.ledger().pendingToDead();
    arch->onPowerFail();
    onPeriodHist.sample(
        static_cast<double>(meter.activeCycles() - resumeActive));
    if (tracer)
        tracer->record(EventKind::PowerFail);

    if (!arch->hasPersistedState()) {
        rebootFromReset();
        return;
    }

    while (meter.totalCycles() <= opts.maxCycles) {
        waitForRecharge(arch->restoreCostNowNj() * 1.2 + 100.0);
        if (meter.totalCycles() > opts.maxCycles)
            return; // never recharged; run() reports incompletion

        meter.setMode(EMode::Restore);
        meter.setAtomic(true);
        try {
            CpuSnapshot snap = arch->performRestore();
            meter.setAtomic(false);
            meter.setMode(EMode::Execute);
            cpu.restore(snap);
            lastBackupActive = meter.activeCycles();
            resumeActive = meter.activeCycles();
            if (tracer)
                tracer->record(EventKind::Restore, 0,
                               arch->committedBackupSeq());
            return;
        } catch (PowerFailure &) {
            // Power died again mid-restore (e.g. while replaying the
            // backup journal). The journal replay is idempotent, so
            // clean up and retry the whole restore.
            panic_if(meter.atomic() && cfg.strictAtomic,
                     "power failure inside an atomic operation "
                     "(strict-atomic mode)");
            meter.setMode(EMode::Execute);
            meter.setAtomic(false);
            meter.ledger().pendingToDead();
            arch->onPowerFail();
            if (tracer)
                tracer->record(EventKind::PowerFail);
        }
    }
}

void
Simulator::maybePolicyBackup()
{
    const uint64_t active = meter.activeCycles();
    PolicyContext ctx{meter.capacitor(),
                      active,
                      active - lastBackupActive,
                      active - resumeActive,
                      arch->backupCostNowNj(),
                      meter.harvestMwNow()};
    if (!policy.shouldBackup(ctx))
        return;
    requestBackup(BackupReason::Policy);
    if (policy.hibernateAfterBackup())
        hibernate();
}

// ----------------------------------------------------------------------
// Main loop
// ----------------------------------------------------------------------

bool
Simulator::runInterpLoop()
{
    bool completed = false;
    // Poll the cancel flag only every ~1k instruction steps: one
    // predictable branch per step in the hot loop, an atomic load
    // only at the coarse cadence.
    unsigned cancelCheck = 0;
    while (meter.totalCycles() <= opts.maxCycles) {
        if (snapPending)
            fireSnapshotPoint(); // safe point: instruction boundary
        if (opts.cancel && ++cancelCheck >= 1024) {
            cancelCheck = 0;
            if (runCancelled(opts))
                break; // completed stays false, like a blown budget
        }
        try {
            StepResult sr = cpu.step();
            meter.retireCycles(sr.cycles);
            if (sr.halted) {
                requestBackup(BackupReason::Final);
                completed = true;
                break;
            }
            maybePolicyBackup();
        } catch (PowerFailure &) {
            handlePowerFailure();
            if (meter.totalCycles() > opts.maxCycles)
                break;
        }
    }
    return completed;
}

RunResult
Simulator::run()
{
    policy.reset();
    // No PowerOn (or initialization) events on a forked run -- they
    // already happened in the run that captured the snapshot, so a
    // fork's event stream is exactly the capturing run's suffix.
    TraceSink *saved_tracer = tracer;
    if (opts.resumeFrom)
        attachTrace(nullptr); // components hold their own sink pointers
    else if (tracer)
        tracer->record(EventKind::PowerOn);
    cpu.reset();
    arch->initialize(program);
    if (opts.resumeFrom)
        attachTrace(saved_tracer);

    bool completed = false;
    if (opts.resumeFrom) {
        // Forked run: overwrite the freshly initialized state with
        // the snapshot and continue from its instruction boundary.
        // The Initial backup is skipped -- it, too, already happened
        // in the capturing run.
        restoreSnapshot(*opts.resumeFrom);
    } else {
        try {
            requestBackup(BackupReason::Initial);
        } catch (PowerFailure &) {
            handlePowerFailure();
        }
    }

    if (resolveEngine(opts.engine) == EngineKind::Threaded) {
        ThreadedEngine engine(*this);
        completed = engine.run();
    } else {
        completed = runInterpLoop();
    }

    bool validated = false;
    bool checked = false;
    if (completed && opts.validate) {
        std::shared_ptr<const GoldenResult> golden = goldenRun(program);
        panic_if(!golden->halted, "golden run did not halt");
        validated = validateAgainstGolden(*golden);
        checked = true;
    }
    arch->syncFaultCounters(injector.stats());
    nvm.forEachWornWord([&](Addr, uint64_t wear_count) {
        nvmWearHist.sample(static_cast<double>(wear_count));
    });
    RunResult result = makeResult(completed, validated);
    result.validationChecked = checked;
    // Host telemetry: aggregate simulated-instruction throughput,
    // one bump per run (never in the per-instruction hot loop).
    if (obs::MetricsRegistry *m = obs::metrics())
        m->add(obs::Counter::Instructions, result.instructions);
    return result;
}

bool
Simulator::validateAgainstGolden(const GoldenResult &golden) const
{
    return diffAgainstGolden(*arch, program, golden) == 0;
}

uint64_t
diffAgainstGolden(const IntermittentArch &arch, const Program &prog,
                  const GoldenResult &golden,
                  std::vector<WordDiff> *report, size_t max_report)
{
    uint64_t diffs = 0;
    const uint32_t words = prog.dataSize() / kWordBytes;
    for (uint32_t w = 0; w < words; ++w) {
        Addr addr = w * kWordBytes;
        Word expect = 0;
        for (unsigned i = 0; i < kWordBytes; ++i)
            expect |= static_cast<Word>(golden.data[addr + i])
                      << (8 * i);
        Word actual = arch.inspectWord(addr);
        if (actual == expect)
            continue;
        if (report && report->size() < max_report)
            report->push_back({addr, expect, actual});
        ++diffs;
    }
    return diffs;
}

RunResult
Simulator::makeResult(bool completed, bool validated) const
{
    RunResult r;
    r.program = program.name;
    r.arch = arch->name();
    r.policy = policy.name();
    r.trace = trace.name();
    r.completed = completed;
    r.validated = validated;
    r.activeCycles = meter.activeCycles();
    r.totalCycles = meter.totalCycles();
    r.instructions = cpu.instret();

    for (size_t i = 0; i < kNumECats; ++i)
        r.energy[i] = meter.ledger().total(static_cast<ECat>(i));
    r.totalEnergyNj = meter.ledger().grandTotal();

    const ArchStats &s = arch->stats();
    r.backups = static_cast<uint64_t>(s.backups.value());
    r.backupsByReason = s.backupsByReason;
    r.violations = static_cast<uint64_t>(s.violations.value());
    r.renames = static_cast<uint64_t>(s.renames.value());
    r.reclaims = static_cast<uint64_t>(s.reclaims.value());
    r.restores = static_cast<uint64_t>(s.restores.value());
    r.powerFailures = static_cast<uint64_t>(s.powerFailures.value());

    r.nvmReads = nvm.totalReads();
    r.nvmWrites = nvm.totalWrites();
    r.maxWear = nvm.maxWear();
    r.cacheHits = arch->dataCache().hits();
    r.cacheMisses = arch->dataCache().misses();

    r.tornBackups = static_cast<uint64_t>(s.tornBackups.value());
    const FaultStats &fs = injector.stats();
    r.injectedCrashes = fs.injectedCrashes;
    r.eccCorrected = fs.eccCorrected;
    r.eccUncorrectable = fs.eccUncorrectable;
    return r;
}

} // namespace nvmr
