/**
 * @file
 * The checked-run harness: executes one CheckCase with the lockstep
 * InvariantSink attached and diffs the final state against the golden
 * oracle. Also provides the fault-free census run that schedule
 * generation and the crash explorers build on.
 */

#ifndef NVMR_CHECK_RUNNER_HH
#define NVMR_CHECK_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hh"
#include "check/oracle.hh"
#include "check/repro.hh"
#include "fault/fault.hh"
#include "power/policy.hh"
#include "power/trace.hh"
#include "sim/simulator.hh"

namespace nvmr
{

/**
 * The platform a CheckCase runs on, shared by every checked run, the
 * fuzzer's plain mode and the census: below 1 mF the co-sized small
 * platform (atomic backups must fit one charge) with a 300-cycle
 * watchdog period; everywhere a 64-entry map table and a 16-entry,
 * 4-way map-table cache; the case's harvest trace, cycle budget,
 * fault schedule, cancel flag and engine. Golden validation is off:
 * the checked harness's oracle diff subsumes and extends it, and
 * skipping it saves a continuous run per schedule. A
 * Simulator keeps references to `cfg` and `trace`, so the platform
 * must outlive the run.
 */
struct CheckPlatform
{
    explicit CheckPlatform(const CheckCase &c);

    SystemConfig cfg;
    std::unique_ptr<BackupPolicy> policy; ///< fresh run state
    HarvestTrace trace;
    RunOptions opts;
};

/** Everything one checked run produced. */
struct CheckOutcome
{
    RunResult run;
    StateDiff diff;                           ///< oracle comparison
    std::vector<InvariantViolation> violations;
    uint64_t totalViolations = 0;

    bool
    clean() const
    {
        return run.completed && diff.clean() && totalViolations == 0;
    }

    /** One-line failure classification ("clean" when clean). */
    std::string describe() const;

    /** Multi-line detail: diverging words + invariant report. */
    std::string detail() const;
};

/**
 * Reference-pass artifacts for snapshot-forked checked runs: machine
 * snapshots taken at safe points of a crash-free run of the case
 * (crash schedules stripped, bit-error knobs kept), each paired with
 * the InvariantSink state at that point. Candidates that only vary
 * the crash schedule fork from the latest snapshot preceding their
 * earliest crash point instead of re-executing the whole prefix.
 */
struct CheckReference
{
    std::vector<SnapshotPtr> snapshots;
    std::vector<std::string> invStates; ///< parallel
    bool completed = false; ///< reference ran to completion
};

/** Build the reference pass for a case (see CheckReference). Capture
 *  every `stride`th safe point. */
CheckReference runReference(const CheckCase &c, uint64_t stride = 1);

/**
 * Run the case intermittently with invariant checking, then diff the
 * recovered final state against the oracle. Pass a precomputed
 * oracle result to amortize it across many schedules of the same
 * program (it must match the case's programText). Pass a
 * CheckReference (built from the same case) to fork mid-trace
 * instead of running from scratch; the outcome is byte-identical
 * either way.
 */
CheckOutcome runChecked(const CheckCase &c,
                        const OracleResult *oracle = nullptr,
                        const CheckReference *ref = nullptr);

/** What a fault-free census run of a case observed. */
struct CensusResult
{
    bool completed = false;
    uint64_t totalCycles = 0;
    uint64_t persistPoints = 0;
    std::vector<FaultInjector::BackupWindow> windows;
    std::vector<uint64_t> commitCycles; ///< BackupCommit event times
};

/**
 * Run the case once with the injector armed but no crash scheduled,
 * collecting the backup-window persist census and the wall-cycle
 * timestamps of every committed backup. This is the map the
 * adversarial schedule generator aims its crashes with.
 */
CensusResult runCensus(const CheckCase &c);

} // namespace nvmr

#endif // NVMR_CHECK_RUNNER_HH
