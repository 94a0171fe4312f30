/**
 * @file
 * Lightweight named statistics. Every architectural component
 * registers its stats into a StatGroup; experiment harnesses and the
 * run-manifest writer read them out by name. Two stat shapes are
 * supported: Scalar (a counter) and Histogram (log2-bucketed samples,
 * for long-tailed quantities like backup intervals).
 */

#ifndef NVMR_COMMON_STATS_HH
#define NVMR_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace nvmr
{

/** Discriminator for the registered stat shapes. */
enum class StatKind
{
    Scalar,
    Histogram,
};

/** Common base: a name, a description and a kind. */
class StatBase
{
  public:
    StatBase() = default;
    StatBase(std::string stat_name, std::string stat_desc)
        : _name(std::move(stat_name)), _desc(std::move(stat_desc))
    {}
    virtual ~StatBase() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    virtual StatKind kind() const = 0;
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A single named counter with a description. */
class Scalar : public StatBase
{
  public:
    Scalar() = default;
    Scalar(std::string stat_name, std::string stat_desc)
        : StatBase(std::move(stat_name), std::move(stat_desc))
    {}

    StatKind kind() const override { return StatKind::Scalar; }

    double value() const { return _value; }

    void reset() override { _value = 0.0; }
    void set(double v) { _value = v; }

    Scalar &
    operator+=(double v)
    {
        _value += v;
        return *this;
    }

    Scalar &
    operator++()
    {
        _value += 1.0;
        return *this;
    }

  private:
    double _value = 0.0;
};

/**
 * Log2-bucketed histogram of non-negative samples. Bucket 0 holds
 * values in [0, 1); bucket i (i >= 1) holds [2^(i-1), 2^i). The
 * power-of-two bucketing needs no a-priori range and resolves
 * quantities that span decades (cycle intervals, wear counts).
 */
class Histogram : public StatBase
{
  public:
    /** Bucket 0 = [0,1) plus one bucket per doubling up to 2^64. */
    static constexpr unsigned kMaxBuckets = 65;

    Histogram() = default;
    Histogram(std::string stat_name, std::string stat_desc)
        : StatBase(std::move(stat_name), std::move(stat_desc))
    {}

    StatKind kind() const override { return StatKind::Histogram; }

    void
    sample(double v, uint64_t n = 1)
    {
        if (n == 0)
            return;
        if (v < 0)
            v = 0; // histogram domain is non-negative
        unsigned b = bucketOf(v);
        counts[b] += n;
        _count += n;
        _sum += v * static_cast<double>(n);
        if (v < _min)
            _min = v;
        if (v > _max)
            _max = v;
    }

    void
    reset() override
    {
        for (uint64_t &c : counts)
            c = 0;
        _count = 0;
        _sum = 0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

    uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const
    {
        return _count ? _sum / static_cast<double>(_count) : 0.0;
    }

    /** Samples recorded in bucket b. */
    uint64_t bucketCount(unsigned b) const { return counts[b]; }

    /** Inclusive lower edge of bucket b. */
    static double
    bucketLow(unsigned b)
    {
        return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    }

    /** Exclusive upper edge of bucket b. */
    static double
    bucketHigh(unsigned b)
    {
        return std::ldexp(1.0, static_cast<int>(b));
    }

    /** Index of the highest non-empty bucket + 1 (0 when empty). */
    unsigned
    numBuckets() const
    {
        for (unsigned b = kMaxBuckets; b > 0; --b)
            if (counts[b - 1])
                return b;
        return 0;
    }

    /**
     * Bucket-resolution quantile: the exclusive upper edge of the
     * bucket where the cumulative count first reaches p * count.
     * p in [0, 1]; returns 0 when empty.
     */
    double
    percentile(double p) const
    {
        if (_count == 0)
            return 0.0;
        double target = p * static_cast<double>(_count);
        uint64_t seen = 0;
        for (unsigned b = 0; b < kMaxBuckets; ++b) {
            seen += counts[b];
            if (static_cast<double>(seen) >= target && counts[b])
                return bucketHigh(b);
            if (static_cast<double>(seen) >= target && seen == _count)
                return bucketHigh(b);
        }
        return bucketHigh(kMaxBuckets - 1);
    }

    /** The bucket a value falls into. */
    static unsigned
    bucketOf(double v)
    {
        if (v < 1.0)
            return 0;
        // floor(log2(v)) + 1, robust at exact powers of two.
        int exp = 0;
        double frac = std::frexp(v, &exp); // v = frac * 2^exp
        (void)frac;                        // frac in [0.5, 1)
        unsigned b = static_cast<unsigned>(exp);
        return b < kMaxBuckets ? b : kMaxBuckets - 1;
    }

    /** Trivially-copyable image of the full histogram state, so
     *  machine snapshots can capture/restore it exactly. */
    struct Raw
    {
        uint64_t counts[kMaxBuckets];
        uint64_t count;
        double sum;
        double min;
        double max;
    };

    Raw
    rawState() const
    {
        Raw r;
        for (unsigned b = 0; b < kMaxBuckets; ++b)
            r.counts[b] = counts[b];
        r.count = _count;
        r.sum = _sum;
        r.min = _min;
        r.max = _max;
        return r;
    }

    void
    setRawState(const Raw &r)
    {
        for (unsigned b = 0; b < kMaxBuckets; ++b)
            counts[b] = r.counts[b];
        _count = r.count;
        _sum = r.sum;
        _min = r.min;
        _max = r.max;
    }

  private:
    uint64_t counts[kMaxBuckets] = {};
    uint64_t _count = 0;
    double _sum = 0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A flat registry of stats. Components own their stats and register
 * pointers here; the group never owns the memory (components outlive
 * it within a Simulator run).
 */
class StatGroup
{
  public:
    /** Register a stat; names must be unique within the group. */
    void add(StatBase *stat);

    /** True if a stat of any kind with this name is registered. */
    bool has(const std::string &stat_name) const;

    /** Look up a stat of any kind; nullptr if absent. */
    const StatBase *findStat(const std::string &stat_name) const;

    /** Look up a scalar by name; returns nullptr if absent or not a
     *  scalar. */
    const Scalar *find(const std::string &stat_name) const;

    /** Look up a histogram by name; nullptr if absent / wrong kind. */
    const Histogram *findHistogram(const std::string &stat_name) const;

    /**
     * Scalar value lookup that panics when the stat does not exist.
     * Harnesses and tests that depend on a counter's existence use
     * this so a renamed stat fails loudly instead of reading as 0.
     */
    double value(const std::string &stat_name) const;

    /** Lenient scalar value lookup: 0 for missing stats. Only for
     *  callers that genuinely treat absence as zero; prefer value(). */
    double get(const std::string &stat_name) const;

    /** Reset every registered stat. */
    void resetAll();

    /** All registered stats, in registration order. */
    const std::vector<StatBase *> &all() const { return order; }

  private:
    std::map<std::string, StatBase *> byName;
    std::vector<StatBase *> order;
};

} // namespace nvmr

#endif // NVMR_COMMON_STATS_HH
