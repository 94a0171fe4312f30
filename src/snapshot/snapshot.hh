/**
 * @file
 * Versioned machine snapshots: one MachineSnapshot is a COW page-table
 * view of the NVM plus a flat blob of every small dynamic structure
 * (CPU, cache, arch scheme state, capacitor charge, energy accounts,
 * fault-injector state, policy state, simulator clocks/histograms).
 * Snapshots are captured only at instruction boundaries after a
 * committed backup (safe points), so a forked run resumed from one is
 * byte-identical to the run that kept going.
 */

#ifndef NVMR_SNAPSHOT_SNAPSHOT_HH
#define NVMR_SNAPSHOT_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hh"
#include "snapshot/cow.hh"

namespace nvmr
{

class Simulator;
struct FaultConfig;

/** Full device + simulator state at one safe point. Immutable once
 *  captured; share freely across forks via shared_ptr. */
struct MachineSnapshot
{
    /** NVM contents, shared copy-on-write with the capturing run and
     *  every fork until they diverge. */
    CowStore::PageTable nvmPages;

    /** Everything else, in component serialization order. */
    std::string blob;

    // Capture-point metadata, so explorers can pick the nearest
    // preceding snapshot without deserializing the blob.
    uint64_t totalCycles = 0;   //!< simulator clock at capture
    uint64_t persistCount = 0;  //!< fault-injector persist counter
    uint64_t committedSeq = 0;  //!< arch backup sequence number
};

using SnapshotPtr = std::shared_ptr<const MachineSnapshot>;

/**
 * Observer invoked by both execution engines at every safe point (the
 * first instruction boundary after a committed backup) when attached
 * via RunOptions::snapshots. The sink decides whether to actually
 * capture (striding, window bound) by calling Simulator::captureSnapshot().
 */
class SnapshotSink
{
  public:
    virtual ~SnapshotSink() = default;
    virtual void onSnapshotPoint(Simulator &sim) = 0;
};

/** Capture-everything sink with an optional stride; the building
 *  block for the crash explorer and shrinker. */
class CollectingSnapshotSink : public SnapshotSink
{
  public:
    /** No window bound: capture through the whole run. */
    static constexpr uint64_t kAllWindows = UINT64_MAX;

    /**
     * @param stride_ capture every Nth safe point (0 acts as 1)
     * @param max_windows_ stop capturing once the fault injector has
     *        recorded more than this many backup windows; a crash
     *        explorer that only probes the first N windows never
     *        forks from a later snapshot. Needs the fault layer on
     *        (RunOptions::faults.enabled), which records the windows.
     */
    explicit CollectingSnapshotSink(uint64_t stride_ = 1,
                                    uint64_t max_windows_ = kAllWindows)
        : stride(stride_ ? stride_ : 1), maxWindows(max_windows_)
    {}

    void onSnapshotPoint(Simulator &sim) override;

    std::vector<SnapshotPtr> snapshots;

    /** Safe points seen (captured or skipped). */
    uint64_t pointsSeen = 0;

  private:
    uint64_t stride;
    uint64_t maxWindows;
};

/**
 * The one failure rule of a snapshot restore, which both restore
 * entry points (Simulator::restoreSnapshot and the checker-state
 * restore of runChecked) end with: a blob that ran short, or carried
 * a count the rest of it cannot hold, panics once with the reader's
 * latched message; a blob with bytes left over panics too.
 */
void finishRestore(const ByteReader &r);

/**
 * The fork source of a run armed with `faults`: the index of the
 * latest snapshot in `snaps` taken strictly before every armed crash
 * point (persist boundaries and cycles, single-shot and scheduled),
 * so each crash still fires in the fork. -1 when none qualifies and
 * the run must start from reset. `snaps` must be in capture order of
 * one run, where both counters only grow.
 */
ptrdiff_t forkSource(const std::vector<SnapshotPtr> &snaps,
                     const FaultConfig &faults);

} // namespace nvmr

#endif // NVMR_SNAPSHOT_SNAPSHOT_HH
