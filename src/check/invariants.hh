/**
 * @file
 * Lockstep invariant checking over the observability event stream.
 * An InvariantSink subscribes to the same TraceSink feed as the
 * exporters and replays a shadow model of the architecture's
 * correctness contract, flagging the exact cycle and event at which
 * an invariant first breaks:
 *
 *   - backup-sequence monotonicity across commits, rollbacks and
 *     restores (no committed progress may ever be lost);
 *   - GBF soundness: the global bloom filter may false-positive but
 *     never false-negative on an inserted block;
 *   - rename injectivity, checked eagerly on every Rename event and
 *     deeply (map table + free list + map-table cache) at every
 *     commit and restore;
 *   - free-list conservation: no renamed location is ever leaked or
 *     handed out twice;
 *   - WAR-freedom of committed NVM writes: during execution no NVM
 *     byte belonging to the recovery image may change after the CPU
 *     read its virtual address in the current backup interval.
 *
 * Sinks never charge energy or cycles, so checking is guaranteed not
 * to perturb the simulation (CheckedArch.StatsBitIdenticalToUncheckedRun
 * in tests/test_check_invariants.cc pins run identity per
 * architecture).
 */

#ifndef NVMR_CHECK_INVARIANTS_HH
#define NVMR_CHECK_INVARIANTS_HH

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/bytes.hh"
#include "common/types.hh"
#include "obs/trace.hh"
#include "sim/config.hh"

namespace nvmr
{

class IntermittentArch;
class NvmrArch;
class MapTable;
class FreeList;
class MapTableCache;

/** One invariant violation, pinned to its triggering event. */
struct InvariantViolation
{
    std::string checker; ///< e.g. "war_freedom", "map_injectivity"
    std::string detail;  ///< human-readable specifics
    uint64_t cycle = 0;  ///< wall cycle of the triggering event
    const char *event = ""; ///< wire name of the triggering event kind
};

/**
 * Deep structural scan of the NvMR renaming state: map-table
 * injectivity, free-list conservation (no leak, no double-free, no
 * free/mapped overlap), application-address chain closure, and
 * (optionally) map-table-cache cleanliness. Valid whenever the
 * structures are in a committed state -- at backup commit, at
 * restore, or in unit tests driving the structures directly.
 *
 * @param in_flight Locations popped for not-yet-committed renames
 *        (excused from the leak check); null when fully committed.
 * @return one human-readable line per violated invariant.
 */
std::vector<std::string> deepCheckNvmr(
    const MapTable &mt, const FreeList &fl, const MapTableCache &mtc,
    Addr reserved_base, uint32_t block_bytes, uint32_t reserved_count,
    bool require_mtc_clean,
    const std::unordered_set<Addr> *in_flight = nullptr);

/** The lockstep checker; attach alongside any other sinks via
 *  TeeSink. Call finalize() once after the run completes. */
class InvariantSink : public TraceSink
{
  public:
    /** @param arch The architecture under test (used for deep scans
     *         and to disable WAR checking for the ideal baseline,
     *         whose in-place writebacks violate WAR by design). */
    InvariantSink(const IntermittentArch &arch,
                  const SystemConfig &cfg);

    void consume(const TraceEvent &ev) override;

    /** End-of-run deep scan (injectivity + conservation with
     *  in-flight renames excused). */
    void finalize();

    /** First violations, in event order (capped; see total). */
    const std::vector<InvariantViolation> &violations() const
    {
        return viols;
    }

    uint64_t totalViolations() const { return total; }
    bool clean() const { return total == 0; }

    /** One formatted line per retained violation. */
    std::string report() const;

    /**
     * Serialize the checker's dynamic state so a forked run (resumed
     * from a MachineSnapshot captured at the same safe point) can
     * continue invariant checking exactly where the reference run
     * was. Only legal while the stream is clean -- a violating prefix
     * must be re-run from scratch to reproduce its report.
     */
    void saveState(ByteWriter &w) const;
    void restoreState(ByteReader &r);

  private:
    /** Which phase of the power lifecycle the stream is in. */
    enum class Epoch
    {
        Execute,
        Backup,
        Recover
    };

    const IntermittentArch &arch;
    const NvmrArch *nvmr; ///< non-null when checking NvMR
    const SystemConfig &cfg;
    uint32_t blockBytes;
    bool warEnabled;

    Epoch epoch = Epoch::Execute;
    uint64_t lastCommitted = 0;

    /** Blocks inserted into the GBF since the last dominance reset. */
    std::unordered_set<Addr> gbfShadow;

    /** Byte-granular first-access shadow for the current backup
     *  interval (virtual addresses; sticky first touch). */
    std::unordered_set<Addr> readFirst;
    std::unordered_set<Addr> writeFirst;

    /** Uncommitted renames: fresh block -> tag. */
    std::unordered_map<Addr, Addr> volatileRenames;

    /** Committed mappings: physical block -> tag (identity entries
     *  skipped), rebuilt from the map table at commit / restore. */
    std::unordered_map<Addr, Addr> committedPhys;

    /** Tags whose committed mapping is elsewhere: their home block
     *  holds no recovery data, so in-place writes there are safe. */
    std::unordered_set<Addr> homeFree;

    std::vector<InvariantViolation> viols;
    uint64_t total = 0;

    void flag(const TraceEvent &ev, const char *checker,
              std::string detail);
    void onMemAccess(const TraceEvent &ev);
    void onNvmWrite(const TraceEvent &ev);
    void onRename(const TraceEvent &ev);
    void deepChecks(const TraceEvent &ev, bool at_commit,
                    const std::unordered_set<Addr> *in_flight =
                        nullptr);
    void rebuildCommitted();
    void clearInterval();
};

} // namespace nvmr

#endif // NVMR_CHECK_INVARIANTS_HH
