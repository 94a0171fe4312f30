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
 * A second table pins fault-injected runs on the crash-exploration
 * system: the crash cuts a per-word charge loop (a register persist,
 * a journal append, a line fill) at a fixed point, so the exact order
 * of the per-word cycle and energy charges around it shows in the
 * ledger. engine-equivalence cannot see that order -- both engines
 * share the memory side -- and the fault-free table never cuts a
 * loop.
 *
 * A deliberate change to the energy model re-records the tables: a
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

/** The figures of a run as a table row tail, from the total energy
 *  on (printed on mismatch). */
std::string
figuresRow(const RunResult &r)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "     0x%016" PRIx64 "ull,\n     {",
                  bits(r.totalEnergyNj));
    std::string row = buf;
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

/** The table row a run would pin (printed on mismatch). */
std::string
pinRow(const Pin &pin, const RunResult &r)
{
    return std::string("    {\"") + pin.workload +
           "\", ArchKind::" + archEnumName(pin.arch) +
           (pin.policy == PolicyKind::Jit ? ", PolicyKind::Jit,\n"
                                          : ", PolicyKind::Watchdog,\n") +
           figuresRow(r);
}

/** True when a run reproduces pinned figures bit for bit. */
template <typename P>
bool
matchesFigures(const P &pin, const RunResult &r)
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
        EXPECT_TRUE(matchesFigures(pin, r))
            << what << " now reproduces:\n" << pinRow(pin, r);
    }
}

/** One pinned fault-injected run on the crash-exploration system and
 *  the figures it must reproduce. */
struct FaultPin
{
    const char *workload;
    ArchKind arch;
    uint64_t crashAtPersist; ///< 0 = none
    uint64_t crashAtCycle;   ///< 0 = none
    const char *where;       ///< what the crash cuts
    bool torn;               ///< the crash tears a backup
    uint64_t totalEnergy;
    uint64_t energy[kNumECats];
    uint64_t activeCycles;
    uint64_t totalCycles;
    uint64_t backups;
};

// The crash points come from a census of the same system (fault layer
// on, nothing armed). Each arch is cut in the middle of a backup's
// 17-word register persist twice: at a persist boundary, and at a
// cycle inside one word's stall cycles, where the word's energy charge
// follows its cycle charge -- swapping the two in any per-word persist
// loop changes what a cycle crash leaves charged. Clank and NvMR are
// also cut in the middle of a 4-word journal append, the same two
// ways (HOOP's log appends are not persist boundaries on this system,
// so it has no journal rows), and every arch at the second word-read
// cycle of a miss's line fill.
const FaultPin kFaultPins[] = {
    {"hist", ArchKind::Clank, 306, 0, "register persist", true,
     0x4149915add7090bdull,
     {0x4119bf76d70a3d72ull, 0x0000000000000000ull,
      0x41462b323333201aull, 0x0000000000000000ull,
      0x406a5999999999a9ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40d6e8347ae14756ull},
     576226, 10600226, 485},
    {"hist", ArchKind::Clank, 0, 4631, "register persist", true,
     0x414990dd2a3d5d8bull,
     {0x4119bfaa47ae147cull, 0x0000000000000000ull,
      0x41462acfccccb9b4ull, 0x0000000000000000ull,
      0x406a5999999999a9ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40d6d7570a3d704bull},
     576164, 10600164, 485},
    {"hist", ArchKind::Clank, 248, 0, "journal append", true,
     0x414989abe51ea543ull,
     {0x4119c01128f5c290ull, 0x0000000000000000ull,
      0x414623729999868cull, 0x0000000000000000ull,
      0x406a5999999999a9ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40d6e6dfffffffa7ull},
     575784, 10599784, 485},
    {"hist", ArchKind::Clank, 0, 4223, "journal append", true,
     0x414989fd770a2a61ull,
     {0x4119c01128f5c290ull, 0x0000000000000000ull,
      0x414623ff9999868bull, 0x0000000000000000ull,
      0x406a5999999999a9ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40d6c928f5c28f03ull},
     575724, 10599724, 485},
    {"hist", ArchKind::Clank, 0, 16052, "line fill", false,
     0x4149659a0cccb9bfull,
     {0x4119bff85c28f5c4ull, 0x0000000000000000ull,
      0x4146232e33332026ull, 0x0000000000000000ull,
      0x406a5999999999a9ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40b406cf5c28f5beull},
     571576, 10595576, 485},
    {"hist", ArchKind::Nvmr, 409, 0, "register persist", true,
     0x414931ba40000018ull,
     {0x4129a6980000001bull, 0x40d6f675c28f5c36ull,
      0x4133951b4ccccea6ull, 0x41255d59eb85194cull,
      0x408047999999999bull, 0x40735170a3d70a3eull,
      0x411aa4951eb855ecull, 0x40d108c51eb851fdull},
     592446, 10584446, 288},
    {"hist", ArchKind::Nvmr, 0, 6332, "register persist", true,
     0x414931be7d70a3f0ull,
     {0x4129a6980000001bull, 0x40d6f675c28f5c36ull,
      0x41339523b333350dull, 0x41255d5a147adbdcull,
      0x408047999999999bull, 0x40735170a3d70a3eull,
      0x411aa4951eb855ecull, 0x40d108c51eb851fdull},
     592454, 10584454, 288},
    {"hist", ArchKind::Nvmr, 3112, 0, "journal append", true,
     0x41492a4c06666682ull,
     {0x4129a6b61eb85206ull, 0x40d6f88a3d70a3e4ull,
      0x41339000f3333512ull, 0x41254e45fae1424aull,
      0x408047999999999bull, 0x40735170a3d70a3eull,
      0x411a9e1d1eb855e8ull, 0x40d0dc647ae147bfull},
     591897, 10583897, 288},
    {"hist", ArchKind::Nvmr, 0, 1078057, "journal append", true,
     0x41492a517d70a3f5ull,
     {0x4129a6b1eb851ed4ull, 0x40d6f7fc28f5c29cull,
      0x4133912ee6666845ull, 0x41254faac28f56c4ull,
      0x408047999999999bull, 0x40735170a3d70a3eull,
      0x411aad3733333739ull, 0x40ceecfae147ae34ull},
     591860, 10583860, 288},
    {"hist", ArchKind::Nvmr, 0, 13553, "line fill", false,
     0x414917055eb8525aull,
     {0x4129c4b7eb851ed1ull, 0x40d700d7ae147aedull,
      0x41334bc8c0000241ull, 0x41255457e666615dull,
      0x406556666666666aull, 0x401c8f5c28f5c27eull,
      0x411b23b851eb896eull, 0x40c80b651eb851feull},
     589771, 10125771, 282},
    {"hist", ArchKind::Hoop, 43, 0, "register persist", true,
     0x41421551ccccc4b4ull,
     {0x410dfdcf999999deull, 0x0000000000000000ull,
      0x413dafb8ccccbcb3ull, 0x0000000000000000ull,
      0x410437e5ffffff02ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40ca1a0ccccccd15ull},
     478474, 4238474, 112},
    {"hist", ArchKind::Hoop, 0, 6701, "register persist", true,
     0x414214ef66665e4full,
     {0x410dfdcf999999deull, 0x0000000000000000ull,
      0x413daef3ffffefe8ull, 0x0000000000000000ull,
      0x410437e5ffffff02ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40ca1a0ccccccd15ull},
     478458, 4238458, 112},
    {"hist", ArchKind::Hoop, 0, 10432, "line fill", false,
     0x41420cabbffff812ull,
     {0x410dfe2f999999ddull, 0x0000000000000000ull,
      0x413d7171666656a9ull, 0x0000000000000000ull,
      0x4105b67dfffffed4ull, 0x0000000000000000ull,
      0x0000000000000000ull, 0x40c8a8333333337bull},
     477510, 4237510, 112},
};

/** The crash-exploration system of nvmr_crashtest: small NvMR
 *  structures with reclaim on, a 4000-cycle watchdog and its RF
 *  trace. */
RunResult
runFaultPinned(const FaultPin &pin, EngineKind engine)
{
    Program prog = assembleWorkload(pin.workload);
    SystemConfig cfg;
    cfg.mapTableEntries = 64;
    cfg.mtCacheEntries = 16;
    cfg.mtCacheWays = 4;
    cfg.reclaimEnabled = true;
    std::unique_ptr<BackupPolicy> policy =
        makePolicy(PolicySpec{PolicyKind::Watchdog, 4000});
    HarvestTrace trace(TraceKind::Rf, 7, 8.0);
    RunOptions opts;
    opts.engine = engine;
    opts.faults.enabled = true;
    opts.faults.crashAtPersist = pin.crashAtPersist;
    opts.faults.crashAtCycle = pin.crashAtCycle;
    Simulator sim(prog, pin.arch, cfg, *policy, trace, opts);
    return sim.run();
}

std::string
faultPinRow(const FaultPin &pin, const RunResult &r)
{
    return std::string("    {\"") + pin.workload + "\", ArchKind::" +
           archEnumName(pin.arch) + ", " +
           std::to_string(pin.crashAtPersist) + ", " +
           std::to_string(pin.crashAtCycle) + ", \"" + pin.where +
           "\", " + (pin.torn ? "true" : "false") + ",\n" +
           figuresRow(r);
}

TEST_P(EnergyLedgerPins, CrashedRunsReproducePinnedLedger)
{
    for (const FaultPin &pin : kFaultPins) {
        RunResult r = runFaultPinned(pin, GetParam());
        std::string what =
            std::string(pin.workload) + "/" + archKindName(pin.arch) +
            " crashed in a " + pin.where + " (" +
            (pin.crashAtPersist
                 ? "persist " + std::to_string(pin.crashAtPersist)
                 : "cycle " + std::to_string(pin.crashAtCycle)) +
            ") on " + engineKindName(GetParam());
        ASSERT_TRUE(r.completed) << what;
        EXPECT_TRUE(r.validated) << what;
        EXPECT_EQ(r.injectedCrashes, 1u) << what;
        EXPECT_EQ(r.tornBackups, pin.torn ? 1u : 0u) << what;
        EXPECT_TRUE(matchesFigures(pin, r))
            << what << " now reproduces:\n" << faultPinRow(pin, r);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EnergyLedgerPins,
    ::testing::Values(EngineKind::Interp, EngineKind::Threaded),
    [](const ::testing::TestParamInfo<EngineKind> &info) {
        return std::string(engineKindName(info.param));
    });

} // namespace
