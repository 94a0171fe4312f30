/**
 * @file
 * Unit tests for the energy ledger (pending/committed semantics,
 * dead-energy reclassification, category bookkeeping) and the energy
 * meter that feeds it (mode categories, the retire charge, brown-out,
 * cycle crash points).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "power/energy.hh"
#include "power/meter.hh"

namespace nvmr
{
namespace
{

TEST(EnergyAccount, CommittedSpendIsVisibleImmediately)
{
    EnergyAccount acc;
    acc.spendCommitted(ECat::Backup, 100);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Backup), 100);
    EXPECT_DOUBLE_EQ(acc.grandTotal(), 100);
}

TEST(EnergyAccount, PendingIsInvisibleUntilCommit)
{
    EnergyAccount acc;
    acc.spendPending(ECat::Forward, 50);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Forward), 0);
    EXPECT_DOUBLE_EQ(acc.pendingTotal(), 50);
    acc.commitPending();
    EXPECT_DOUBLE_EQ(acc.total(ECat::Forward), 50);
    EXPECT_DOUBLE_EQ(acc.pendingTotal(), 0);
}

TEST(EnergyAccount, PowerFailureTurnsPendingIntoDead)
{
    EnergyAccount acc;
    acc.spendPending(ECat::Forward, 30);
    acc.spendPending(ECat::ForwardOverhead, 10);
    acc.pendingToDead();
    EXPECT_DOUBLE_EQ(acc.total(ECat::Forward), 0);
    EXPECT_DOUBLE_EQ(acc.total(ECat::ForwardOverhead), 0);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Dead), 40);
}

TEST(EnergyAccount, CommitPreservesCategories)
{
    EnergyAccount acc;
    acc.spendPending(ECat::Forward, 30);
    acc.spendPending(ECat::ForwardOverhead, 10);
    acc.spendPending(ECat::Reclaim, 5);
    acc.commitPending();
    EXPECT_DOUBLE_EQ(acc.total(ECat::Forward), 30);
    EXPECT_DOUBLE_EQ(acc.total(ECat::ForwardOverhead), 10);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Reclaim), 5);
}

TEST(EnergyAccount, MixedLifecycle)
{
    // Two sections: the first commits, the second dies.
    EnergyAccount acc;
    acc.spendPending(ECat::Forward, 100);
    acc.spendCommitted(ECat::Backup, 20);
    acc.commitPending();
    acc.spendPending(ECat::Forward, 60);
    acc.pendingToDead();
    acc.spendCommitted(ECat::Restore, 5);

    EXPECT_DOUBLE_EQ(acc.total(ECat::Forward), 100);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Backup), 20);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Dead), 60);
    EXPECT_DOUBLE_EQ(acc.total(ECat::Restore), 5);
    EXPECT_DOUBLE_EQ(acc.grandTotal(), 185);
}

TEST(EnergyAccount, ResetClearsEverything)
{
    EnergyAccount acc;
    acc.spendPending(ECat::Forward, 10);
    acc.spendCommitted(ECat::Backup, 10);
    acc.reset();
    EXPECT_DOUBLE_EQ(acc.grandTotal(), 0);
    EXPECT_DOUBLE_EQ(acc.pendingTotal(), 0);
}

TEST(EnergyCategories, NamesAreStable)
{
    EXPECT_STREQ(ecatName(ECat::Forward), "forward");
    EXPECT_STREQ(ecatName(ECat::Dead), "dead");
    EXPECT_STREQ(ecatName(ECat::BackupOverhead), "backup_overhead");
    EXPECT_STREQ(ecatName(ECat::Reclaim), "reclaim");
}

/** What a meter charges against: default technology, the crash
 *  platform's harvest trace, a disabled fault injector. */
struct MeterTest : public ::testing::Test
{
    TechParams tech;
    HarvestTrace trace{TraceKind::Rf, 7, 8.0};
    FaultInjector faults;
};

TEST_F(MeterTest, ModeSelectsTheLedgerCategory)
{
    EnergyMeter m(Capacitor(0.1), tech, trace, faults);
    m.capacitor().setVoltage(2.4);
    m.consume(1);
    m.consumeOverhead(2);
    m.setMode(EMode::Backup);
    m.consume(4);
    m.consumeOverhead(8);
    m.setMode(EMode::Restore);
    m.consume(16);
    m.consumeOverhead(32);
    m.setMode(EMode::Reclaim);
    m.consume(64);
    m.consumeOverhead(128);
    const EnergyAccount::Raw raw = m.ledger().rawState();
    EXPECT_EQ(raw.pending[size_t(ECat::Forward)], 1);
    EXPECT_EQ(raw.pending[size_t(ECat::ForwardOverhead)], 2);
    EXPECT_EQ(m.ledger().total(ECat::Backup), 4);
    EXPECT_EQ(m.ledger().total(ECat::BackupOverhead), 8);
    EXPECT_EQ(m.ledger().total(ECat::Restore), 16);
    EXPECT_EQ(m.ledger().total(ECat::RestoreOverhead), 32);
    EXPECT_EQ(m.ledger().total(ECat::Reclaim), 192);
}

TEST_F(MeterTest, RetireChargeIsExecuteModeAddCyclesBitForBit)
{
    // The engines' retire charge and the generic per-cycle charge
    // must move the capacitor, the ledger and the clocks identically,
    // across harvest-sample boundaries and with the MT leak on.
    EnergyMeter a(Capacitor(0.1), tech, trace, faults);
    EnergyMeter b(Capacitor(0.1), tech, trace, faults);
    for (EnergyMeter *m : {&a, &b}) {
        m->capacitor().setVoltage(2.3);
        m->setMtLeak(true);
    }
    Cycles n = 1;
    for (int i = 0; i < 4000; ++i, n = n % 13 + 1) {
        a.retireCycles(n);
        b.addCycles(n);
    }
    ASSERT_GT(a.totalCycles(), 3 * HarvestTrace::cyclesPerSample);
    EXPECT_EQ(a.totalCycles(), b.totalCycles());
    EXPECT_EQ(a.activeCycles(), b.activeCycles());
    const double ea = a.capacitor().rawEnergy();
    const double eb = b.capacitor().rawEnergy();
    EXPECT_EQ(std::memcmp(&ea, &eb, sizeof(ea)), 0);
    const EnergyAccount::Raw ra = a.ledger().rawState();
    const EnergyAccount::Raw rb = b.ledger().rawState();
    EXPECT_EQ(std::memcmp(&ra, &rb, sizeof(ra)), 0);
    EXPECT_GT(ra.pending[size_t(ECat::ForwardOverhead)], 0);
}

TEST_F(MeterTest, AddCyclesOfZeroIsFree)
{
    EnergyMeter m(Capacitor(0.1), tech, trace, faults);
    m.capacitor().setVoltage(2.4);
    m.addCycles(0);
    EXPECT_EQ(m.totalCycles(), 0u);
    EXPECT_EQ(m.ledger().pendingTotal(), 0);
}

TEST_F(MeterTest, BrownOutThrowsPowerFailure)
{
    EnergyMeter m(Capacitor(0.1), tech, trace, faults);
    m.capacitor().setVoltage(1.9);
    m.setAtomic(true); // a torn atomic section is recoverable
    EXPECT_THROW(m.consume(m.capacitor().usableNj() + 1), PowerFailure);
    EXPECT_TRUE(m.capacitor().dead());
}

TEST_F(MeterTest, StrictAtomicBrownOutPanics)
{
    EnergyMeter m(Capacitor(0.1), tech, trace, faults,
                  /*strict_atomic=*/true);
    m.capacitor().setVoltage(1.9);
    m.setAtomic(true);
    EXPECT_DEATH(m.consume(m.capacitor().usableNj() + 1),
                 "brown-out inside an atomic operation");
}

TEST_F(MeterTest, ClockDrivesCycleCrashPoints)
{
    FaultConfig fc;
    fc.enabled = true;
    fc.crashAtCycle = 10;
    FaultInjector inj(fc);
    EnergyMeter m(Capacitor(0.1), tech, trace, inj);
    m.capacitor().setVoltage(2.4);
    EXPECT_NO_THROW(m.addCycles(9));
    EXPECT_THROW(m.addCycles(1), PowerFailure);
    EXPECT_EQ(inj.stats().injectedCrashes, 1u);
    // The cycle was charged before the crash point fired.
    EXPECT_EQ(m.totalCycles(), 10u);
}

} // namespace
} // namespace nvmr
