/**
 * @file
 * Pinned energy ledger: exact bit patterns of the energy categories,
 * cycle counts and backup counts of a fixed set of intermittent runs.
 * engine-equivalence diffs the two engines against each other, so a
 * change to the shared Simulator energy sink (the capacitor drain,
 * the ledger categories, the brown-out check) would move both engines
 * alike and go unseen there. These pins catch it: every run below must
 * reproduce the recorded figures bit for bit on both engines.
 *
 * A deliberate change to the energy model re-records the table: a
 * failing case prints its replacement row.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "power/policy.hh"
#include "sim/engine.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace nvmr;

namespace
{

uint64_t
bits(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u;
}

/** One pinned run and the figures it must reproduce. */
struct Pin
{
    const char *workload;
    ArchKind arch;
    PolicyKind policy;
    uint64_t totalEnergy;               ///< bits of totalEnergyNj
    uint64_t energy[kNumECats];         ///< bits of each category
    uint64_t activeCycles;
    uint64_t totalCycles;
    uint64_t backups;
};

const Pin kPins[] = {
    {"hist", ArchKind::Clank, PolicyKind::Jit,
     0x4149c3424e147112ull,
     {0x411c22540a3d70a2ull, 0x0000000000000000ull,
      0x41463ef7ccccc2feull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull},
     570235, 2474235, 493},
    {"hist", ArchKind::Clank, PolicyKind::Watchdog,
     0x414962d54a3d66f4ull,
     {0x4119d33d0a3d70a3ull, 0x0000000000000000ull,
      0x41461a7f33332984ull, 0x0000000000000000ull,
      0x4083c3333333332bull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40b964851eb851f6ull},
     573974, 2469974, 484},
    {"hist", ArchKind::Nvmr, PolicyKind::Jit,
     0x413e26971c28f6beull,
     {0x41363ff10cccce26ull, 0x40ce2afffffffd42ull,
      0x4101f702666664e2ull, 0x4115adbf0a3d7003ull,
      0x0000000000000000ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull},
     414136, 2302136, 27},
    {"hist", ArchKind::Nvmr, PolicyKind::Watchdog,
     0x41450f9fe147ada8ull,
     {0x41355792bfffffcbull, 0x40d0444f5c28f530ull,
      0x41095c7a666662b6ull, 0x411aa4b6a3d70996ull,
      0x408000cccccccce4ull, 0x40356b851eb851fcull,
      0x0000000000000000ull, 0x41255f92947ae142ull},
     567459, 2399459, 46},
    {"hist", ArchKind::Hoop, PolicyKind::Jit,
     0x4145e02179998a68ull,
     {0x411183ef00000027ull, 0x0000000000000000ull,
      0x4143afa399998a63ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull},
     522943, 2578943, 118},
    {"hist", ArchKind::Hoop, PolicyKind::Watchdog,
     0x4145f741666659d1ull,
     {0x410e02ef999999ecull, 0x0000000000000000ull,
      0x4141d58699998d20ull, 0x0000000000000000ull,
      0x41105644fffffefcull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40db619999999994ull},
     549042, 2421042, 110},
    {"qsort", ArchKind::Clank, PolicyKind::Jit,
     0x41592bdee147b604ull,
     {0x412bf36b23d70a4full, 0x0000000000000000ull,
      0x4155ad6ae6666e54ull, 0x0000000000000000ull,
      0x403a59999999999cull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x0000000000000000ull},
     1403487, 6251487, 639},
    {"qsort", ArchKind::Clank, PolicyKind::Watchdog,
     0x4158e21b27ae1c34ull,
     {0x412975ca3851eb96ull, 0x0000000000000000ull,
      0x41559afb4cccd484ull, 0x0000000000000000ull,
      0x408568ccccccccb7ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40d7bb4d70a3d6edull},
     1423228, 6239228, 635},
    {"qsort", ArchKind::Nvmr, PolicyKind::Jit,
     0x414f4e977eb851d0ull,
     {0x4145a050d0a3d793ull, 0x40d4aa9ae147a961ull,
      0x4116c91fffffffcdull, 0x412aaefa99999744ull,
      0x403c733333333336ull, 0x3ff30a3d70a3d70aull,
      0x0000000000000000ull, 0x0000000000000000ull},
     1118251, 6102251, 48},
    {"qsort", ArchKind::Nvmr, PolicyKind::Watchdog,
     0x4153bad850a3d777ull,
     {0x4143d5b89eb850dcull, 0x40d7104d70a3d6e5ull,
      0x4127a40e4cccd5e9ull, 0x413242242147adbdull,
      0x4082ab999999999dull, 0x4038fd70a3d70a64ull,
      0x0000000000000000ull, 0x41219a2a2e147a18ull},
     1348262, 6092262, 121},
    {"qsort", ArchKind::Hoop, PolicyKind::Jit,
     0x4155fb6c9cccc8cfull,
     {0x412ca60a999999beull, 0x0000000000000000ull,
      0x41522553e6666263ull, 0x0000000000000000ull,
      0x40ef063999999a1cull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40aa577fffffffd4ull},
     1327613, 8831613, 218},
    {"qsort", ArchKind::Hoop, PolicyKind::Watchdog,
     0x415596764cccbce4ull,
     {0x4128f0b500000068ull, 0x0000000000000000ull,
      0x414f8b4b4cccac07ull, 0x0000000000000000ull,
      0x4122b6e2333336a0ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40f6f77000000012ull},
     1399316, 6239316, 182},
};

RunResult
runPinned(const Pin &pin, EngineKind engine)
{
    Program prog = assembleWorkload(pin.workload);
    SystemConfig cfg;
    cfg.capacitorFarads = 7.5e-3; // failure-prone: Dead energy too
    cfg.oopRegionEntries = 384;
    PolicySpec spec;
    spec.kind = pin.policy;
    std::unique_ptr<BackupPolicy> policy = makePolicy(spec);
    HarvestTrace trace(TraceKind::Rf, 4242, 7.0);
    RunOptions opts;
    opts.engine = engine;
    Simulator sim(prog, pin.arch, cfg, *policy, trace, opts);
    return sim.run();
}

const char *
archEnumName(ArchKind kind)
{
    switch (kind) {
      case ArchKind::Clank: return "Clank";
      case ArchKind::Nvmr: return "Nvmr";
      default: return "Hoop";
    }
}

/** The table row a run would pin (printed on mismatch). */
std::string
pinRow(const Pin &pin, const RunResult &r)
{
    char buf[64];
    std::string row = std::string("    {\"") + pin.workload +
                      "\", ArchKind::" + archEnumName(pin.arch) +
                      (pin.policy == PolicyKind::Jit
                           ? ", PolicyKind::Jit,\n"
                           : ", PolicyKind::Watchdog,\n");
    std::snprintf(buf, sizeof(buf), "     0x%016" PRIx64 "ull,\n     {",
                  bits(r.totalEnergyNj));
    row += buf;
    for (size_t i = 0; i < kNumECats; ++i) {
        std::snprintf(buf, sizeof(buf), "0x%016" PRIx64 "ull%s",
                      bits(r.energy[i]),
                      i + 1 == kNumECats ? "},\n"
                      : i % 2 == 1       ? ",\n      "
                                         : ", ");
        row += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "     %" PRIu64 ", %" PRIu64 ", %" PRIu64 "},",
                  r.activeCycles, r.totalCycles, r.backups);
    return row + buf;
}

bool
matchesPin(const Pin &pin, const RunResult &r)
{
    for (size_t i = 0; i < kNumECats; ++i)
        if (bits(r.energy[i]) != pin.energy[i])
            return false;
    return bits(r.totalEnergyNj) == pin.totalEnergy &&
           r.activeCycles == pin.activeCycles &&
           r.totalCycles == pin.totalCycles && r.backups == pin.backups;
}

class EnergyLedgerPins : public ::testing::TestWithParam<EngineKind>
{
};

TEST_P(EnergyLedgerPins, RunsReproducePinnedLedger)
{
    for (const Pin &pin : kPins) {
        RunResult r = runPinned(pin, GetParam());
        std::string what = std::string(pin.workload) + "/" +
                           archKindName(pin.arch) + "/" +
                           policyKindName(pin.policy) + " on " +
                           engineKindName(GetParam());
        ASSERT_TRUE(r.completed) << what;
        EXPECT_TRUE(r.validated) << what;
        if (pin.policy == PolicyKind::Watchdog) { // covers Dead energy
            EXPECT_GT(r.powerFailures, 0u) << what;
        }
        EXPECT_TRUE(matchesPin(pin, r))
            << what << " now reproduces:\n" << pinRow(pin, r);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EnergyLedgerPins,
    ::testing::Values(EngineKind::Interp, EngineKind::Threaded),
    [](const ::testing::TestParamInfo<EngineKind> &info) {
        return std::string(engineKindName(info.param));
    });

} // namespace
