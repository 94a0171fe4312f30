/**
 * @file
 * Google-benchmark microbenchmarks of the hot hardware structures:
 * the data cache, the bloom filter, the map-table cache, the free
 * list, the map table, the CPU interpreter and the assembler. These
 * gate simulator throughput, which bounds how many configuration
 * sweeps the figure harnesses can afford.
 */

#include <benchmark/benchmark.h>

#include "common/xorshift.hh"
#include "core/freelist.hh"
#include "core/maptable.hh"
#include "core/mtcache.hh"
#include "cpu/cpu.hh"
#include "isa/assembler.hh"
#include "mem/bloom.hh"
#include "mem/cache.hh"
#include "sim/simulator.hh"
#include "test_meter.hh"
#include "workloads/workloads.hh"

namespace nvmr
{
namespace
{

void
BM_CacheLookupHit(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    CacheConfig cfg;
    DataCache cache(cfg, tech, meter);
    std::vector<Word> data(cfg.wordsPerBlock(), 1);
    for (uint32_t i = 0; i < cfg.numBlocks(); ++i)
        cache.fill(cache.victim(i * 16), i * 16, data);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(a));
        a = (a + 16) & 0xff;
    }
}
BENCHMARK(BM_CacheLookupHit);

void
BM_CacheFill(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    CacheConfig cfg;
    DataCache cache(cfg, tech, meter);
    std::vector<Word> data(cfg.wordsPerBlock(), 1);
    Addr a = 0;
    for (auto _ : state) {
        cache.fill(cache.victim(a), a, data);
        a += 16;
    }
}
BENCHMARK(BM_CacheFill);

void
BM_BloomInsertLookup(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    BloomFilter bf(static_cast<unsigned>(state.range(0)), 1, tech,
                   meter);
    Addr a = 0;
    for (auto _ : state) {
        bf.insert(a);
        benchmark::DoNotOptimize(bf.maybeContains(a + 16));
        a += 32;
    }
}
BENCHMARK(BM_BloomInsertLookup)->Arg(8)->Arg(64)->Arg(1024);

void
BM_MtCacheLookup(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    MapTableCache mtc(512, 8, tech, meter);
    for (Addr a = 0; a < 512 * 16; a += 16)
        mtc.install(mtc.victim(a), a, a, a, false, true);
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mtc.lookup(a));
        a = (a + 16) & 0x1fff;
    }
}
BENCHMARK(BM_MtCacheLookup);

void
BM_MapTableSetLookup(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    MapTable mt(4096, tech, meter);
    Addr a = 0;
    for (auto _ : state) {
        mt.set(a & 0xffff, a);
        benchmark::DoNotOptimize(mt.lookup(a & 0xffff));
        a += 16;
    }
}
BENCHMARK(BM_MapTableSetLookup);

void
BM_FreeListPopPush(benchmark::State &state)
{
    TechParams tech;
    TestMeter meter;
    FreeList fl(4609, tech, meter);
    fl.initFill(0x100000, 16, 4609);
    for (auto _ : state) {
        Addr a = fl.pop();
        fl.push(a);
    }
}
BENCHMARK(BM_FreeListPopPush);

void
BM_CpuInterpreterThroughput(benchmark::State &state)
{
    Program prog = assemble("spin", R"(
        .data
arr:    .rand 64 1 0 100
        .text
main:
        li   r1, arr
loop:
        ld   r2, 0(r1)
        addi r2, r2, 1
        st   r2, 0(r1)
        xor  r3, r3, r2
        jmp  loop
)");
    class FlatPort : public DataPort
    {
      public:
        Word mem[64] = {};
        Word loadWord(Addr a) override { return mem[(a / 4) & 63]; }
        void storeWord(Addr a, Word v) override
        {
            mem[(a / 4) & 63] = v;
        }
        uint8_t loadByte(Addr) override { return 0; }
        void storeByte(Addr, uint8_t) override {}
    } port;
    Cpu cpu(prog, port);
    for (auto _ : state)
        benchmark::DoNotOptimize(cpu.step().cycles);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CpuInterpreterThroughput);

void
BM_AssembleWorkload(benchmark::State &state)
{
    for (auto _ : state) {
        Program p = assembleWorkload("hist");
        benchmark::DoNotOptimize(p.text.size());
    }
}
BENCHMARK(BM_AssembleWorkload);

void
BM_EndToEndIntermittentRun(benchmark::State &state)
{
    Program prog = assemble("tiny", R"(
        .data
arr:    .rand 128 5 0 100
        .text
main:
        li   r1, 0
pass:
        li   r2, 0
elem:
        slli r3, r2, 2
        li   r4, arr
        add  r3, r3, r4
        ld   r5, 0(r3)
        addi r5, r5, 1
        st   r5, 0(r3)
        addi r2, r2, 1
        li   r6, 128
        blt  r2, r6, elem
        addi r1, r1, 1
        li   r6, 2
        blt  r1, r6, pass
        halt
)");
    SystemConfig cfg;
    HarvestTrace trace(TraceKind::Solar, 1, 8.0);
    for (auto _ : state) {
        JitPolicy policy;
        RunOptions opts;
        opts.validate = false;
        Simulator sim(prog, ArchKind::Nvmr, cfg, policy, trace,
                      opts);
        RunResult r = sim.run();
        benchmark::DoNotOptimize(r.totalEnergyNj);
    }
}
BENCHMARK(BM_EndToEndIntermittentRun);

} // namespace
} // namespace nvmr
