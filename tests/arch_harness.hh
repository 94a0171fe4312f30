/**
 * @file
 * Shared fixture for driving an intermittent architecture directly
 * (no full simulator): a zero-cost test meter, a backup host that
 * performs backups immediately, and helpers to force evictions on
 * the 2-set data cache of Table 2.
 */

#ifndef NVMR_TESTS_ARCH_HARNESS_HH
#define NVMR_TESTS_ARCH_HARNESS_HH

#include <memory>

#include "arch/arch.hh"
#include "isa/assembler.hh"
#include "sim/simulator.hh"
#include "test_meter.hh"

namespace nvmr
{

/** Host that performs requested backups unconditionally. */
class ImmediateBackupHost : public BackupHost
{
  public:
    explicit ImmediateBackupHost(IntermittentArch *a) : arch(a) {}

    void
    requestBackup(BackupReason reason) override
    {
        arch->performBackup(snapshot, reason);
        arch->postBackup(reason);
        ++requests;
    }

    IntermittentArch *arch;
    CpuSnapshot snapshot;
    int requests = 0;
};

/** Harness owning one architecture over a small program image. */
struct ArchHarness
{
    SystemConfig cfg;
    TestMeter meter;
    std::unique_ptr<Nvm> nvm;
    std::unique_ptr<IntermittentArch> arch;
    std::unique_ptr<ImmediateBackupHost> host;
    Program prog;

    explicit ArchHarness(ArchKind kind, SystemConfig config = {})
        : cfg(config)
    {
        prog = assemble("t", R"(
        .data
d:      .space 8192
        .text
        halt
)");
        nvm = std::make_unique<Nvm>(cfg.nvmBytes, cfg.tech, meter);
        arch = makeArch(kind, cfg, *nvm, meter);
        host = std::make_unique<ImmediateBackupHost>(arch.get());
        arch->attachHost(host.get());
        arch->initialize(prog);
        // Establish an initial recovery point like the simulator.
        arch->performBackup(CpuSnapshot{}, BackupReason::Initial);
    }

    /**
     * Force the block containing `addr` out of the cache by filling
     * its set with conflicting clean blocks from high addresses.
     * Table 2's cache has 2 sets of 8 ways; blocks with the same
     * (blockIndex & 1) map to the same set.
     */
    void
    evict(Addr addr)
    {
        Addr block = addr & ~0xfu;
        uint32_t parity = (block / 16) & 1;
        Addr base = 0x1000 + parity * 16;
        for (int i = 0; i < 8; ++i)
            arch->loadWord(base + 32u * i);
    }

    uint64_t backups() const
    {
        return static_cast<uint64_t>(arch->stats().backups.value());
    }
    uint64_t violations() const
    {
        return static_cast<uint64_t>(
            arch->stats().violations.value());
    }
    uint64_t renames() const
    {
        return static_cast<uint64_t>(arch->stats().renames.value());
    }
    uint64_t reclaims() const
    {
        return static_cast<uint64_t>(arch->stats().reclaims.value());
    }
};

} // namespace nvmr

#endif // NVMR_TESTS_ARCH_HARNESS_HH
