/**
 * @file
 * TraceSink: the collection side of the observability layer. A sink
 * is attached to a Simulator (which forwards it down to the
 * architecture, the fault injector and the CPU); components call
 * record() at interesting moments. When no sink is attached the hooks
 * are a null-pointer check -- tracing off changes no simulation
 * result, by construction: sinks never charge energy or cycles.
 *
 * Shipped sinks:
 *   - TraceBuffer: bounded ring buffer with exporters to
 *     Chrome/Perfetto trace JSON and a compact binary format.
 *   - TextSink: live line-per-event printing (the `--events` view).
 *   - TeeSink: fan-out to several sinks.
 */

#ifndef NVMR_OBS_TRACE_HH
#define NVMR_OBS_TRACE_HH

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hh"

namespace nvmr
{

/** Abstract event consumer with the clock-stamping record() front. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * Bind the wall-cycle and active-cycle counters the sink stamps
     * events with (the Simulator binds its own counters on attach).
     * Unbound clocks stamp 0.
     */
    void
    bindClocks(const uint64_t *total_cycles,
               const uint64_t *active_cycles)
    {
        wallClock = total_cycles;
        activeClock = active_cycles;
    }

    /** Record an event stamped with the bound clocks. */
    void
    record(EventKind kind, uint64_t a0 = 0, uint64_t a1 = 0)
    {
        consume(TraceEvent{wallClock ? *wallClock : 0,
                           activeClock ? *activeClock : 0, kind, a0,
                           a1});
    }

    /** Record with explicit timestamps (tests, replay). */
    void
    recordAt(uint64_t cycle, uint64_t active, EventKind kind,
             uint64_t a0 = 0, uint64_t a1 = 0)
    {
        consume(TraceEvent{cycle, active, kind, a0, a1});
    }

    /** Sink-specific event handling. */
    virtual void consume(const TraceEvent &ev) = 0;

  private:
    const uint64_t *wallClock = nullptr;
    const uint64_t *activeClock = nullptr;
};

/**
 * Bounded ring buffer of events. When full, the oldest events are
 * overwritten and counted as dropped; exporters always see the
 * retained suffix in recording order.
 */
class TraceBuffer : public TraceSink
{
  public:
    /** @param capacity Maximum retained events (must be > 0). */
    explicit TraceBuffer(size_t capacity = 1u << 20);

    void consume(const TraceEvent &ev) override;

    size_t capacity() const { return cap; }
    size_t size() const { return ring.size(); }
    uint64_t totalRecorded() const { return recorded; }
    uint64_t dropped() const { return recorded - ring.size(); }

    /** Retained events, oldest first. */
    std::vector<TraceEvent> events() const;

    void clear();

    // ------------------------------------------------------------------
    // Exporters
    // ------------------------------------------------------------------

    /**
     * Chrome trace-event JSON (the legacy format Perfetto and
     * chrome://tracing load). Wall cycles map to microseconds;
     * events land on named per-layer tracks.
     */
    std::string toChromeJson() const;

    /** Compact binary export (magic "NVTR", version 1, little-endian
     *  fixed-width records; see docs/observability.md). */
    void writeBinary(std::ostream &os) const;

    /** Parse a binary export back (tests / offline tooling) from the
     *  rest of `is`. A header record count the bytes that follow
     *  cannot hold, a bad event kind or trailing bytes are fatal.
     *  When `dropped_out` is non-null it receives the header's count
     *  of events lost to ring wrap before the export. */
    static std::vector<TraceEvent>
    readBinary(std::istream &is, uint64_t *dropped_out = nullptr);

  private:
    size_t cap;
    size_t head = 0; ///< index of the oldest event when wrapped
    bool wrapped = false;
    uint64_t recorded = 0;
    std::vector<TraceEvent> ring;
};

/**
 * Live text printing of the narrative events (backup / power failure
 * / restore / hibernate / wake), matching the historical `--events`
 * output byte for byte; optionally verbose (every event kind).
 */
class TextSink : public TraceSink
{
  public:
    explicit TextSink(std::FILE *out, bool verbose = false)
        : out(out), verbose(verbose)
    {}

    void consume(const TraceEvent &ev) override;

    /** Render one event as the text line (without newline). */
    static std::string formatEvent(const TraceEvent &ev, bool verbose);

  private:
    std::FILE *out;
    bool verbose;
};

/** Fan-out to several sinks (e.g. --events plus --trace-json). */
class TeeSink : public TraceSink
{
  public:
    void addSink(TraceSink *sink) { sinks.push_back(sink); }

    void
    consume(const TraceEvent &ev) override
    {
        for (TraceSink *s : sinks)
            s->consume(ev);
    }

  private:
    std::vector<TraceSink *> sinks;
};

} // namespace nvmr

#endif // NVMR_OBS_TRACE_HH
