/**
 * @file
 * The central correctness property of the repository: for randomly
 * generated programs, every intermittent architecture x backup policy
 * x capacitor size combination must finish with exactly the NVM state
 * a continuously-powered execution produces — across power failures,
 * re-execution, renaming and log replay.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "check/runner.hh"
#include "isa/assembler.hh"
#include "sim/randprog.hh"
#include "sim/simulator.hh"

namespace nvmr
{
namespace
{

struct CorrectnessCase
{
    ArchKind arch;
    PolicyKind policy;
    double farads;
    uint64_t seed;
};

std::string
caseName(const ::testing::TestParamInfo<CorrectnessCase> &info)
{
    std::ostringstream os;
    os << archKindName(info.param.arch) << "_"
       << policyKindName(info.param.policy) << "_"
       << static_cast<int>(info.param.farads * 1e6) << "uF_s"
       << info.param.seed;
    return os.str();
}

class IntermittentCorrectness
    : public ::testing::TestWithParam<CorrectnessCase>
{
};

TEST_P(IntermittentCorrectness, FinalStateMatchesContinuousRun)
{
    const CorrectnessCase &c = GetParam();
    CheckCase cc;
    cc.name = "rand" + std::to_string(c.seed);
    cc.arch = c.arch;
    cc.policy = c.policy;
    cc.farads = c.farads;
    cc.traceSeed = 4000 + c.seed;
    Program prog = assemble(cc.name, makeRandomProgram(c.seed));

    // The checked platform: a tiny capacitor can only make forward
    // progress if the backup interval, the worst-case (atomic) backup
    // cost and HOOP's restore-time log GC all fit inside one charge,
    // so below 1 mF every structure is co-sized with the capacitor
    // (the paper's watchdog/HOOP runs use the 100 mF default); small
    // map structures stress the structural-hazard paths.
    CheckPlatform plat(cc);
    plat.opts.validate = true;
    Simulator sim(prog, cc.arch, plat.cfg, *plat.policy, plat.trace,
                  plat.opts);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed) << "did not complete";
    EXPECT_TRUE(r.validated) << "final NVM state diverged";
}

std::vector<CorrectnessCase>
allCases()
{
    std::vector<CorrectnessCase> cases;
    for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        for (double farads : {0.1, 500e-6}) {
            for (PolicyKind pol :
                 {PolicyKind::Jit, PolicyKind::Watchdog}) {
                cases.push_back(
                    {ArchKind::Clank, pol, farads, seed});
                cases.push_back(
                    {ArchKind::ClankOriginal, pol, farads, seed});
                cases.push_back({ArchKind::Nvmr, pol, farads, seed});
                cases.push_back({ArchKind::Hoop, pol, farads, seed});
            }
            // The ideal architecture is only safe under perfect JIT.
            cases.push_back(
                {ArchKind::Ideal, PolicyKind::Jit, farads, seed});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, IntermittentCorrectness,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(IntermittentCorrectnessExtras, ReclaimModeStaysCorrect)
{
    Program prog = assemble("rand13", makeRandomProgram(13));
    SystemConfig cfg;
    // A big capacitor keeps JIT backups rare, so renames accumulate
    // and the (tiny) map table actually fills up.
    cfg.capacitorFarads = 0.1;
    cfg.mapTableEntries = 8;
    cfg.mtCacheEntries = 8;
    cfg.mtCacheWays = 2;
    cfg.reclaimEnabled = true;
    cfg.reclaimBatch = 4;

    JitPolicy policy;
    HarvestTrace trace(TraceKind::Wind, 555, 7.0);
    Simulator sim(prog, ArchKind::Nvmr, cfg, policy, trace);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.reclaims, 0u);
}

TEST(IntermittentCorrectnessExtras, TinyOopStructuresStayCorrect)
{
    Program prog = assemble("rand11", makeRandomProgram(11));
    SystemConfig cfg;
    cfg.capacitorFarads = 500e-6;
    cfg.oopBufferEntries = 8;
    cfg.oopRegionEntries = 64;

    WatchdogPolicy policy(8000);
    HarvestTrace trace(TraceKind::Solar, 777, 7.0);
    Simulator sim(prog, ArchKind::Hoop, cfg, policy, trace);
    RunResult r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.validated);
}

} // namespace
} // namespace nvmr
