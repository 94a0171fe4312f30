/**
 * @file
 * Full system configuration. Defaults reproduce Table 2 of the paper
 * (plus the HOOP configuration of Table 4 and capacitor parameters).
 */

#ifndef NVMR_SIM_CONFIG_HH
#define NVMR_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/names.hh"
#include "mem/cache.hh"
#include "power/energy.hh"

namespace nvmr
{

/** Which intermittent architecture to simulate. */
enum class ArchKind
{
    Ideal, ///< violations counted but never forced to back up (Table 3)
    Clank, ///< our-version Clank: backup on every idempotency violation
    ClankOriginal, ///< buffer-based cacheless Clank [16] (footnote 6)
    Task,  ///< task-boundary checkpointing (Section 2.2, Figure 2c)
    Nvmr,  ///< the paper's contribution: NVM renaming
    Hoop,  ///< simplified log-based HOOP (Section 6.2)
};

/** Every architecture name, in the order "valid: ..." lists print
 *  them (namesOf). */
inline constexpr KindName<ArchKind> kArchNames[] = {
    {ArchKind::Ideal, "ideal"},
    {ArchKind::Clank, "clank"},
    {ArchKind::ClankOriginal, "clank_original"},
    {ArchKind::Task, "task"},
    {ArchKind::Nvmr, "nvmr"},
    {ArchKind::Hoop, "hoop"},
};

inline const char *
archKindName(ArchKind kind)
{
    return nameOf(kArchNames, kind);
}

/** False on an unknown name. */
inline bool
archKindFromName(const std::string &name, ArchKind &out)
{
    return kindOf(kArchNames, name, out);
}

/**
 * Deliberately seeded renaming bugs (mutation hooks). The checker
 * acceptance tests flip one on and prove the src/check oracle and
 * invariant layer catches, shrinks and replays it; production
 * configurations leave it at None.
 */
enum class InjectedBug
{
    None,
    /** Backup flush forgets to return retired mappings to the free
     *  list: a conservation (leak) violation. */
    FreeListLeak,
    /** Renames alias every fresh location onto the first one popped:
     *  a map-table injectivity violation plus data corruption. */
    RenameAlias,
};

/** System configuration (Table 2 defaults). */
struct SystemConfig
{
    // Data cache: 256 B, 8-way, 16 B blocks, LRU.
    CacheConfig cache{};

    // Global bloom filter: 8 one-bit entries.
    unsigned gbfBits = 8;
    unsigned gbfHashes = 1;

    // Map table cache: 512 entries, 8-way, LRU.
    uint32_t mtCacheEntries = 512;
    uint32_t mtCacheWays = 8;

    // Map table: 4096 entries, LRU (reclaim victim selection).
    uint32_t mapTableEntries = 4096;

    /** Free-list mappings; 0 selects the worst-case sizing of
     *  Section 5.1: map table + map-table cache + 1. */
    uint32_t freeListEntries = 0;

    /** Enable map-table reclamation (Section 4.8). */
    bool reclaimEnabled = false;

    /** Entries reclaimed per map-table-full backup; 0 selects
     *  mapTableEntries / 8. */
    uint32_t reclaimBatch = 0;

    /** Model the atomicity (double-buffering) cost of in-place
     *  backups (footnote 3 of the paper). Disabling it is an
     *  ablation that shows how much of NvMR's win comes from
     *  escaping the atomicity constraint (bench/ablation_atomicity).
     */
    bool modelBackupAtomicity = true;

    /** Treat any power failure inside an atomic section -- a genuine
     *  brown-out or an injected crash -- as fatal (the
     *  pre-fault-model behavior, for A/B comparison of cost
     *  estimates). Off by default: partial persists are modeled and
     *  the recovery protocol falls back to the last complete
     *  backup. */
    bool strictAtomic = false;

    /** Mutation hook for the checker acceptance tests (see the
     *  InjectedBug enum); None in every real configuration. */
    InjectedBug injectedBug = InjectedBug::None;

    // Flash: 2 MB.
    uint32_t nvmBytes = 2u << 20;

    // Supercapacitor: 100 mF, 2.4 V max.
    double capacitorFarads = 0.1;
    double vMax = 2.4;
    double vOn = 2.2;
    double vOff = 1.8;

    /** Documented power-law capacitance compression (DESIGN.md
     *  substitution 4): effective C = capScale * nominal^capExp. */
    double capScale = 8e-4;
    double capExponent = 0.607;

    // Simplified HOOP (Table 4): OOP buffer 128, OOP region 2048,
    // infinite zero-cost mapping table.
    uint32_t oopBufferEntries = 128;
    uint32_t oopRegionEntries = 2048;

    // Original Clank's read-first / write-first address buffers
    // (word-granular); 32+32 words matches the on-chip storage of
    // our-version Clank's 256 B cache.
    uint32_t rfBufferEntries = 32;
    uint32_t wfBufferEntries = 32;

    TechParams tech{};

    /**
     * A platform co-sized for a uF-range capacitor. Atomic backups
     * (and HOOP's restore-time GC) must fit one capacitor charge or
     * the device livelocks re-executing the same interval, so every
     * state-holding structure shrinks with the energy store: a 64 B
     * cache, small renaming/logging structures and storage-matched
     * original-Clank buffers. Table 2's defaults assume the 100 mF
     * capacitor.
     */
    static SystemConfig
    smallPlatform()
    {
        SystemConfig cfg;
        cfg.capacitorFarads = 500e-6;
        cfg.cache.sizeBytes = 64;
        cfg.cache.ways = 4;
        cfg.mtCacheEntries = 16;
        cfg.mtCacheWays = 4;
        cfg.mapTableEntries = 64;
        cfg.oopBufferEntries = 8;
        cfg.oopRegionEntries = 96;
        cfg.rfBufferEntries = 8;
        cfg.wfBufferEntries = 8;
        return cfg;
    }

    /** Effective free-list size after defaulting. */
    uint32_t
    effectiveFreeListEntries() const
    {
        return freeListEntries ? freeListEntries
                               : mapTableEntries + mtCacheEntries + 1;
    }

    /** Effective reclaim batch after defaulting. */
    uint32_t
    effectiveReclaimBatch() const
    {
        uint32_t batch = reclaimBatch ? reclaimBatch
                                      : mapTableEntries / 8;
        return batch ? batch : 1;
    }
};

} // namespace nvmr

#endif // NVMR_SIM_CONFIG_HH
