/**
 * @file
 * Backup policies (Section 5.2). NvMR's point is that the policy is
 * decoupled from program correctness, so policies are pluggable:
 *  - JIT: oracle threshold; fires when the remaining usable energy
 *    just covers the current backup cost, then hibernates.
 *  - Watchdog: a backup every 8000 cycles (the most conservative).
 *  - Spendthrift: a small neural network over (environment power,
 *    capacitor voltage) trained on JIT-oracle labels.
 */

#ifndef NVMR_POWER_POLICY_HH
#define NVMR_POWER_POLICY_HH

#include <memory>
#include <string>

#include "common/types.hh"
#include "power/capacitor.hh"
#include "power/spendthrift.hh"

namespace nvmr
{

/** Everything a policy may look at when deciding to back up. */
struct PolicyContext
{
    const Capacitor &cap;
    Cycles activeCycles;        ///< active cycles since run start
    Cycles cyclesSinceBackup;   ///< active cycles since last backup
    Cycles cyclesSinceResume;   ///< active cycles since last resume
    NanoJoules backupCostNj;    ///< architecture's current backup cost
    double harvestMw;           ///< instantaneous harvested power
};

/**
 * A machine-checkable description of a policy's decision rule, used by
 * the threaded execution engine (sim/engine.cc) to inline the
 * per-instruction backup check instead of making a virtual call into
 * shouldBackup(). A policy may only advertise a non-Generic mode when
 * its shouldBackup() is a pure function of the advertised parameters:
 * no internal state, no side effects, no other context fields.
 */
struct PolicyFastPath
{
    enum class Mode : uint8_t
    {
        /** shouldBackup() keeps state or has side effects; it must be
         *  called after every instruction. */
        Generic,
        /** Fires iff cap.usableNj() <= backupCostNj*margin + slackNj. */
        EnergyThreshold,
        /** Fires iff cyclesSinceBackup >= period. */
        CyclePeriod,
        /** Never fires. */
        None,
    };

    Mode mode = Mode::Generic;
    double margin = 0;
    NanoJoules slackNj = 0;
    Cycles period = 0;
};

/** Abstract backup policy. */
class BackupPolicy
{
  public:
    virtual ~BackupPolicy() = default;

    virtual const char *name() const = 0;

    /** Consulted after every instruction. */
    virtual bool shouldBackup(const PolicyContext &ctx) = 0;

    /** JIT-style policies hibernate after their backup fires. */
    virtual bool hibernateAfterBackup() const { return false; }

    /** Reset internal state at the start of a run. */
    virtual void reset() {}

    /**
     * Inline-check description for the threaded engine; defaults to
     * Generic (always call shouldBackup()). A subclass that overrides
     * shouldBackup() with new state or side effects MUST also override
     * this back to Generic, or the engine will silently skip its
     * logic (see RecordingJitPolicy in sim/experiment.cc).
     */
    virtual PolicyFastPath fastPath() const { return {}; }

    /**
     * Internal state for machine snapshots, packed into one word
     * (every current policy's state is at most a cycle count). A
     * stateful policy MUST override both of these or forked runs
     * diverge from their from-scratch equivalents.
     */
    virtual uint64_t saveState() const { return 0; }
    virtual void restoreState(uint64_t) {}
};

/**
 * Just-in-time oracle: fires when usable energy drops to the cost of
 * backing up the current dirty state (times a safety margin), i.e.
 * exactly before the supply would be unable to save the state.
 */
class JitPolicy : public BackupPolicy
{
  public:
    explicit JitPolicy(double margin = 1.5, NanoJoules slack_nj = 50.0)
        : margin(margin), slackNj(slack_nj)
    {}

    const char *name() const override { return "jit"; }
    bool shouldBackup(const PolicyContext &ctx) override;
    bool hibernateAfterBackup() const override { return true; }

    PolicyFastPath
    fastPath() const override
    {
        return {PolicyFastPath::Mode::EnergyThreshold, margin, slackNj,
                0};
    }

  private:
    double margin;
    NanoJoules slackNj;
};

/** Fixed-period watchdog timer (8000 cycles in [16]). */
class WatchdogPolicy : public BackupPolicy
{
  public:
    explicit WatchdogPolicy(Cycles period = 8000) : period(period) {}

    const char *name() const override { return "watchdog"; }
    bool shouldBackup(const PolicyContext &ctx) override;

    PolicyFastPath
    fastPath() const override
    {
        return {PolicyFastPath::Mode::CyclePeriod, 0, 0, period};
    }

  private:
    Cycles period;
};

/**
 * Spendthrift [24]: a lightweight neural network predicts imminent
 * power loss from (environment power, capacitor voltage), polled
 * every pollPeriod cycles. Representative of commercially deployed
 * JIT schemes.
 */
class SpendthriftPolicy : public BackupPolicy
{
  public:
    SpendthriftPolicy(const SpendthriftModel &model,
                      Cycles poll_period = 64,
                      Cycles resume_cooldown = 512);

    const char *name() const override { return "spendthrift"; }
    bool shouldBackup(const PolicyContext &ctx) override;
    bool hibernateAfterBackup() const override { return true; }
    void reset() override { lastPoll = 0; }
    uint64_t saveState() const override { return lastPoll; }
    void restoreState(uint64_t s) override { lastPoll = s; }

  private:
    const SpendthriftModel &model;
    Cycles pollPeriod;
    Cycles resumeCooldown;
    Cycles lastPoll = 0;
};

/**
 * Never fires: for software schemes whose only checkpoints come from
 * the program itself (task boundaries), and for measuring an
 * architecture's structural backups in isolation.
 */
class NonePolicy : public BackupPolicy
{
  public:
    const char *name() const override { return "none"; }
    bool shouldBackup(const PolicyContext &) override { return false; }

    PolicyFastPath
    fastPath() const override
    {
        return {PolicyFastPath::Mode::None, 0, 0, 0};
    }
};

/** Which policy an experiment uses. */
enum class PolicyKind
{
    Jit,
    Watchdog,
    Spendthrift,
    None,
};

const char *policyKindName(PolicyKind kind);

/** Policy factory parameters. */
struct PolicySpec
{
    PolicyKind kind = PolicyKind::Jit;
    Cycles watchdogPeriod = 8000;
    double jitMargin = 1.5;
    /** Required for Spendthrift. */
    const SpendthriftModel *model = nullptr;
};

/** Build a policy instance from a spec. */
std::unique_ptr<BackupPolicy> makePolicy(const PolicySpec &spec);

} // namespace nvmr

#endif // NVMR_POWER_POLICY_HH
