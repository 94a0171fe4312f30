#include "check/fuzzcases.hh"

#include <cstdio>

#include "common/xorshift.hh"

namespace nvmr
{

namespace
{

const FuzzCase kCases[] = {
    {ArchKind::Clank, PolicyKind::Jit, 0.1},
    {ArchKind::Clank, PolicyKind::Watchdog, 500e-6},
    {ArchKind::ClankOriginal, PolicyKind::Jit, 0.1},
    {ArchKind::ClankOriginal, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Nvmr, PolicyKind::Jit, 0.1},
    {ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Nvmr, PolicyKind::Jit, 500e-6},
    {ArchKind::Hoop, PolicyKind::Jit, 0.1},
    {ArchKind::Hoop, PolicyKind::Watchdog, 500e-6},
    {ArchKind::Ideal, PolicyKind::Jit, 0.1},
    {ArchKind::Clank, PolicyKind::Watchdog, 500e-6, true},
    {ArchKind::Nvmr, PolicyKind::Watchdog, 500e-6, true},
};

} // namespace

const FuzzCase *
fuzzCases()
{
    return kCases;
}

size_t
fuzzCaseCount()
{
    return sizeof(kCases) / sizeof(kCases[0]);
}

FaultConfig
randomFuzzFaults(uint64_t seed, uint64_t case_idx)
{
    XorShift rng(seed * 1315423911ull + case_idx + 1);
    FaultConfig fc;
    fc.enabled = true;
    fc.seed = seed;
    fc.crashAtPersist = 1 + rng.next() % 1500;
    if (rng.next() % 4 == 0)
        fc.crashAtCycle = 1 + rng.next() % 200000;
    if (rng.next() % 2 == 0) {
        fc.transientBitErrorRate = 1e-5 * (1 + rng.next() % 20);
        fc.doubleBitFraction = 0;
        fc.maxReadRetries = 4;
    }
    return fc;
}

CheckCase
makeFuzzCheckCase(const std::string &text, uint64_t seed,
                  const FuzzCase &c, const FaultConfig *faults)
{
    CheckCase cc;
    cc.name = "fuzz" + std::to_string(seed);
    cc.arch = c.arch;
    cc.policy = c.policy;
    cc.farads = c.farads;
    cc.byteLbf = c.byteLbf;
    cc.traceSeed = 40000 + seed;
    cc.programText = text;
    cc.programSeed = seed;
    if (faults)
        cc.faults = *faults;
    return cc;
}

FuzzOutcome
evalFuzzCase(const Program &prog, const std::string &text,
             uint64_t seed, const FuzzCase &c,
             const FaultConfig *faults, bool oracle_mode,
             uint64_t budget_cycles, const std::atomic<bool> *cancel,
             EngineKind engine)
{
    FuzzOutcome out;
    if (faults) {
        out.faults = *faults;
        out.haveFaults = true;
    }

    // The ideal architecture is only safe under perfect JIT.
    if (c.arch == ArchKind::Ideal && c.policy != PolicyKind::Jit) {
        out.skipped = true;
        return out;
    }

    CheckCase cc = makeFuzzCheckCase(text, seed, c, faults);
    if (budget_cycles)
        cc.maxCycles = budget_cycles;
    cc.cancel = cancel;
    cc.engine = engine;

    if (oracle_mode) {
        // Full checked harness: lockstep invariants + oracle diff.
        CheckOutcome res = runChecked(cc);
        cc.cancel = nullptr; // repro payloads stay runtime-free
        cc.engine = EngineKind::Default;
        out.cc = std::move(cc);
        out.ok = res.clean();
        if (!out.ok) {
            out.run = res.run;
            out.checkText = res.describe() + "\n" + res.detail();
        }
        return out;
    }

    // Plain mode: the same platform, checked by golden validation.
    CheckPlatform plat(cc);
    plat.opts.validate = true;
    Simulator sim(prog, c.arch, plat.cfg, *plat.policy, plat.trace,
                  plat.opts);
    out.run = sim.run();
    out.ok = out.run.completed && out.run.validated;
    return out;
}

std::string
renderFuzzFailure(const FuzzOutcome &out, uint64_t seed,
                  uint64_t case_idx, bool faults_mode, bool oracle_mode)
{
    const FuzzCase &c = fuzzCases()[case_idx - 1];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\nFAILURE: seed %llu on %s/%s at %g F: ",
                  static_cast<unsigned long long>(seed),
                  archKindName(c.arch), policyKindName(c.policy),
                  c.farads);
    std::string text = buf;
    if (oracle_mode) {
        text += out.checkText;
    } else {
        text += out.run.completed ? "final state diverged\n"
                                  : "did not complete\n";
        if (out.haveFaults) {
            std::snprintf(buf, sizeof(buf),
                          "faults: crashAtPersist=%llu "
                          "crashAtCycle=%llu "
                          "transientBitErrorRate=%g\n",
                          static_cast<unsigned long long>(
                              out.faults.crashAtPersist),
                          static_cast<unsigned long long>(
                              out.faults.crashAtCycle),
                          out.faults.transientBitErrorRate);
            text += buf;
        }
    }
    std::snprintf(buf, sizeof(buf),
                  "repro: nvmr_fuzz%s%s --one %llu %llu   # %s/%s at "
                  "%g F%s\n",
                  faults_mode ? " --faults" : "",
                  oracle_mode ? " --oracle" : "",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(case_idx),
                  archKindName(c.arch), policyKindName(c.policy),
                  c.farads, c.byteLbf ? " (byte LBF)" : "");
    return text + buf;
}

} // namespace nvmr
