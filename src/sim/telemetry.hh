/**
 * @file
 * Time-series telemetry: a periodic counter sampler that probes
 * occupancy/throughput gauges across the component tree at a fixed
 * simulated-tick cadence and accumulates compact per-track series.
 *
 * Determinism contract: samples are stamped with the *scheduled*
 * boundary tick (multiples of the period), and every probe evaluates
 * a pure predicate of component state "as of" that boundary — never
 * of the caller's current cycle. The commit hooks only tell the
 * sampler that time advanced past a boundary; whether that crossing
 * was noticed at the exact commit or after a constant-cost replay
 * batch cannot change what is recorded, because batched commit kinds
 * never mutate gauge state. That is what makes the series
 * byte-identical between interpretation, commit-stream replay, and
 * checkpoint-forked runs.
 *
 * The zero-sample configuration costs one pointer null-check per
 * commit (see Scheme::onCommit / retireBatch); nothing else touches
 * the hot path.
 */

#ifndef CWSP_SIM_TELEMETRY_HH
#define CWSP_SIM_TELEMETRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/state_capture.hh"
#include "sim/types.hh"

namespace cwsp::json {
class Writer;
}

namespace cwsp::sim {

class CounterSampler
{
  public:
    /** Gauge probe: component state as of the boundary tick. */
    using Probe = std::function<std::uint64_t(Tick)>;

    struct Track
    {
        std::string name; ///< hierarchical, e.g. "core0.pb_occupancy"
        std::uint16_t lane = 0; ///< trace lane for the counter track
        Probe probe;
        std::vector<std::uint64_t> values;
    };

    explicit CounterSampler(Tick period) : period_(period ? period : 1)
    {
    }

    Tick period() const { return period_; }

    /**
     * Find-or-create the track named @p name. Series survive track
     * re-binding (reset() rebuilds the component tree and re-binds
     * probes against the fresh components without dropping samples).
     */
    std::size_t ensureTrack(const std::string &name,
                            std::uint16_t lane);

    void
    bindProbe(std::size_t index, Probe probe)
    {
        tracks_[index].probe = std::move(probe);
    }

    std::size_t trackCount() const { return tracks_.size(); }
    const Track &track(std::size_t i) const { return tracks_[i]; }

    /** Boundary ticks, parallel to every track's values vector. */
    const std::vector<Tick> &sampleTicks() const { return ticks_; }
    std::size_t sampleCount() const { return ticks_.size(); }

    /**
     * Commit hook: called with the clock after an advance. Inline
     * fast path — one compare when no boundary was crossed.
     */
    void
    maybeSample(Tick now)
    {
        if (now >= next_)
            sampleUpTo(now);
    }

    /** Drop all samples and rewind the cadence to tick 0. */
    void clearSamples();

    /**
     * Checkpoint support, mirroring TraceBuffer: wholesale series
     * capture/replace. Restore requires identical geometry (period
     * and track count) and returns false otherwise.
     */
    void captureState(StateWriter &w) const;
    bool restoreState(StateReader &r);

    /**
     * The `time_series` stats-JSON section:
     * {"period":P,"samples":N,"ticks":[...],"tracks":{name:[...]}}.
     */
    void exportJson(json::Writer &w) const;

  private:
    void sampleUpTo(Tick now);

    Tick period_;
    Tick next_ = 0; ///< next boundary to sample (monotone cursor)
    std::vector<Tick> ticks_;
    std::vector<Track> tracks_;
};

} // namespace cwsp::sim

#endif // CWSP_SIM_TELEMETRY_HH
