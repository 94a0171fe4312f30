/**
 * @file
 * Supercapacitor energy-storage model: E = 1/2 C V^2, with the
 * operating thresholds used by intermittent systems (turn-on voltage,
 * brown-out voltage, maximum harvest voltage).
 */

#ifndef NVMR_POWER_CAPACITOR_HH
#define NVMR_POWER_CAPACITOR_HH

#include "common/log.hh"
#include "common/types.hh"

namespace nvmr
{

/**
 * The storage capacitor. All energies are in nanojoules. The device
 * runs while V > vOff; after a brown-out it stays off until the
 * harvester recharges the capacitor past vOn.
 *
 * A documented scale factor is applied to the nominal capacitance so
 * that active periods land in the 10^3..10^5 cycle range our
 * benchmarks need (DESIGN.md substitution 4); the paper's relative
 * capacitor-size ordering (500uF < 7.5mF < 100mF) is preserved.
 *
 * Stored energy is the primary state: drain/harvest/threshold checks
 * -- several per simulated instruction -- are adds and compares
 * against precomputed threshold energies, and the sqrt only runs when
 * someone actually asks for volts. (E = 1/2 C V^2 is monotonic, so
 * every voltage-threshold comparison is an energy comparison.)
 */
class Capacitor
{
  public:
    /**
     * @param nominal_farads Label capacitance (e.g. 0.1 for "100 mF").
     * @param v_max Maximum harvest voltage (2.4 V in Table 2).
     * @param v_on Turn-on threshold after a brown-out.
     * @param v_off Brown-out voltage.
     * @param cap_scale Coefficient of the power-law compression.
     * @param cap_exponent Exponent of the power-law compression.
     *
     * The effective capacitance is cap_scale * nominal^cap_exponent:
     * a documented compression of the paper's capacitor range so
     * that, with our shortened benchmarks, the smallest capacitor
     * still affords a worst-case backup while the largest still
     * experiences several power cycles per run (DESIGN.md,
     * substitution 4). Defaults map {500 uF, 7.5 mF, 100 mF} to
     * roughly {8 uF, 41 uF, 198 uF}.
     */
    Capacitor(double nominal_farads, double v_max = 2.4,
              double v_on = 2.2, double v_off = 1.8,
              double cap_scale = 8e-4, double cap_exponent = 0.607);

    /** Current capacitor voltage (derived from the stored energy). */
    double voltage() const { return toVolts(e); }

    /** Set the voltage directly (initial conditions, tests). */
    void setVoltage(double new_v);

    /** Stored energy above 0 V. */
    NanoJoules energyNj() const { return e; }

    /** Energy available before the brown-out voltage is reached. */
    NanoJoules usableNj() const { return e > eOff ? e - eOff : 0.0; }

    /** Energy that a full recharge could still add. */
    NanoJoules headroomNj() const
    {
        return e < eMax ? eMax - e : 0.0;
    }

    /** True when the supply has browned out. */
    bool dead() const { return e <= eDead; }

    /** True when a browned-out device may turn back on. */
    bool canTurnOn() const { return e >= eOn; }

    /** Remove energy (computation, backups). Clamps at 0 V. */
    void
    drainNj(NanoJoules nj)
    {
        panic_if(nj < 0, "negative drain");
        e = e > nj ? e - nj : 0.0;
    }

    /** Add harvested energy. Clamps at vMax. */
    void
    harvestNj(NanoJoules nj)
    {
        panic_if(nj < 0, "negative harvest");
        e += nj;
        if (e > eMax)
            e = eMax;
    }

    double vMaxVolts() const { return vMax; }
    double vOnVolts() const { return vOn; }
    double vOffVolts() const { return vOff; }

    /** Effective (scaled) capacitance in farads. */
    double effectiveFarads() const { return farads; }

    /** Stored energy is the only dynamic state; everything else is
     *  derived from the configuration (machine snapshots). */
    NanoJoules rawEnergy() const { return e; }
    void setRawEnergy(NanoJoules nj) { e = nj; }

  private:
    double farads;
    double vMax;
    double vOn;
    double vOff;

    /** Stored energy (primary state) and precomputed thresholds:
     *  eDead = toNj(vOff + eps) preserves the seed's voltage-epsilon
     *  dead() semantics under the monotonic E(V) map. */
    NanoJoules e = 0;
    NanoJoules eMax = 0;
    NanoJoules eOn = 0;
    NanoJoules eOff = 0;
    NanoJoules eDead = 0;

    NanoJoules toNj(double volts) const;
    double toVolts(NanoJoules nj) const;
};

} // namespace nvmr

#endif // NVMR_POWER_CAPACITOR_HH
