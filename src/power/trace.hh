/**
 * @file
 * Synthetic ambient-energy harvesting traces. Stand-in for the
 * measured voltage traces of BatterylessSim [28] (DESIGN.md,
 * substitution 3): harvested power sampled at 1 kHz, with RF-bursty,
 * solar-like and wind-like generators. Traces wrap around when a
 * simulation outlives them.
 */

#ifndef NVMR_POWER_TRACE_HH
#define NVMR_POWER_TRACE_HH

#include <string>
#include <vector>

#include "common/names.hh"
#include "common/types.hh"

namespace nvmr
{

/** Ambient source archetypes. */
enum class TraceKind
{
    Rf,    ///< long quiet intervals with strong bursts
    Solar, ///< slowly varying level with cloud dips
    Wind,  ///< bounded random walk
};

/** Every trace kind name, in the order "valid: ..." lists print
 *  them. */
inline constexpr KindName<TraceKind> kTraceNames[] = {
    {TraceKind::Rf, "rf"},
    {TraceKind::Solar, "solar"},
    {TraceKind::Wind, "wind"},
};

inline const char *
traceKindName(TraceKind kind)
{
    return nameOf(kTraceNames, kind);
}

/** False on an unknown name. */
inline bool
traceKindFromName(const std::string &name, TraceKind &out)
{
    return kindOf(kTraceNames, name, out);
}

/** A harvested-power trace, in milliwatts, sampled at 1 kHz. */
class HarvestTrace
{
  public:
    /**
     * Generate a trace.
     * @param kind Source archetype.
     * @param seed Deterministic generator seed.
     * @param mean_mw Approximate long-run mean power.
     * @param samples Number of 1 ms samples (default 30 s).
     */
    HarvestTrace(TraceKind kind, uint64_t seed, double mean_mw,
                 size_t samples = 30000);

    /** Harvested power at a simulated cycle (8 MHz clock; wraps). */
    double powerMwAtCycle(Cycles cycle) const;

    /** Energy harvested over a cycle interval [from, from+n). */
    NanoJoules harvestedNj(Cycles from, Cycles n) const;

    /** Descriptive name, e.g. "rf/42". */
    const std::string &name() const { return _name; }

    /** Long-run mean of the generated samples. */
    double meanMw() const { return _meanMw; }

    /** Cycles per 1 kHz sample at the 8 MHz core clock. */
    static constexpr Cycles cyclesPerSample = 8000;

    /** 1 mW over one 8 MHz cycle (125 ns) is 0.125 nJ. */
    static constexpr double njPerMwCycle = 0.125;

    /**
     * The standard evaluation trace set: `n` traces cycling through
     * the three archetypes with distinct seeds (the paper averages
     * across 10 traces).
     */
    static std::vector<HarvestTrace> standardSet(int n = 10);

    /** The 7-trace training / 3-trace test split used by Spendthrift. */
    static std::vector<HarvestTrace> trainingSet();
    static std::vector<HarvestTrace> testSet();

    /**
     * Build a trace from explicit 1 kHz samples (one power value in
     * mW per millisecond). This is the hook for replaying *measured*
     * traces, like the BatterylessSim captures the paper uses.
     */
    static HarvestTrace fromSamples(std::string name,
                                    std::vector<double> samples_mw);

    /**
     * Load a trace from a CSV file: one sample per line (a bare
     * number, mW), `#` comments and blank lines ignored.
     * fatal()s on unreadable files or malformed lines.
     */
    static HarvestTrace fromCsvFile(const std::string &path);

    /** Write the trace's samples as CSV (one mW value per line). */
    void toCsvFile(const std::string &path) const;

    /** Raw access to the 1 kHz samples. */
    const std::vector<double> &samples() const { return samplesMw; }

  private:
    HarvestTrace() = default;

    std::vector<double> samplesMw;
    std::string _name;
    double _meanMw = 0;

    void computeMean();
};

} // namespace nvmr

#endif // NVMR_POWER_TRACE_HH
