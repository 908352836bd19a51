/**
 * @file
 * Lightweight statistics: scalar counters, running averages, and
 * histograms collected in a registry so experiments can dump them
 * uniformly, merge per-worker copies, and export machine-readable
 * JSON.
 */

#ifndef CWSP_SIM_STATS_HH
#define CWSP_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "sim/state_capture.hh"

namespace cwsp::json {
class Writer;
}

namespace cwsp {

/** A monotonically increasing scalar statistic. */
class Counter
{
  public:
    void inc(std::uint64_t delta = 1) { value_ += delta; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    void mergeFrom(const Counter &other) { value_ += other.value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A running mean over samples, e.g. the average occupancy of the L1D
 * write buffer sampled per committed store (Fig. 6).
 */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
    }

    double mean() const { return count_ == 0 ? 0.0 : sum_ / count_; }
    double sum() const { return sum_; }
    std::uint64_t count() const { return count_; }

    void
    mergeFrom(const Average &other)
    {
        sum_ += other.sum_;
        count_ += other.count_;
    }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0;
    }

    void
    captureState(sim::StateWriter &w) const
    {
        w.pod(sum_);
        w.pod(count_);
    }

    void
    restoreState(sim::StateReader &r)
    {
        sum_ = r.pod<double>();
        count_ = r.pod<std::uint64_t>();
    }

  private:
    double sum_ = 0.0;
    std::uint64_t count_ = 0;
};

/** A fixed-bucket histogram (last bucket is an overflow bucket). */
class Histogram
{
  public:
    /** @param bucket_width width of each bucket; @param buckets count. */
    explicit Histogram(std::uint64_t bucket_width = 1,
                       std::size_t buckets = 64);

    void sample(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    double mean() const;
    /**
     * Smallest value v such that at least ceil(fraction * count)
     * samples are <= v, reported at bucket granularity and clamped to
     * the true maximum sample (so the overflow bucket never invents a
     * finite upper edge). fraction = 0 (or an empty histogram)
     * returns 0.
     */
    std::uint64_t percentile(double fraction) const;
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    std::uint64_t bucketWidth() const { return bucketWidth_; }
    /** Largest sample observed (0 when empty). */
    std::uint64_t maxSample() const { return max_; }
    /** Samples that landed in the clamped overflow bucket. */
    std::uint64_t overflow() const { return overflow_; }

    /** Merge @p other (must share bucket width and bucket count). */
    void mergeFrom(const Histogram &other);

    void reset();

    /** Checkpointing: full bucket array plus the scalar moments. */
    void captureState(sim::StateWriter &w) const;
    void restoreState(sim::StateReader &r);

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t overflow_ = 0;
    double sum_ = 0.0;
};

/**
 * Named collection of statistics owned by one simulation instance.
 * Names are hierarchical by convention, e.g. "core0.pb.stalls"; the
 * JSON export nests on the dots.
 *
 * Individual statistic objects are single-writer; mergeFrom() locks
 * the destination registry so many workers can fold their private
 * registries into one shared aggregate concurrently (the sources must
 * be quiescent while merged).
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &other);
    StatsRegistry &operator=(const StatsRegistry &other);

    Counter &counter(const std::string &name);
    Average &average(const std::string &name);
    Histogram &histogram(const std::string &name,
                         std::uint64_t bucket_width = 1,
                         std::size_t buckets = 64);

    /** Look up an existing counter; returns 0 value if absent. */
    std::uint64_t counterValue(const std::string &name) const;
    /** Look up an existing average; returns 0.0 if absent. */
    double averageValue(const std::string &name) const;

    /** Dump every statistic as "name value" lines. */
    void dump(std::ostream &os) const;

    /**
     * Export every statistic as one hierarchical JSON object, nesting
     * on the '.' separators of the names. Counters render as numbers;
     * averages as {mean, count, sum}; histograms as {count, mean,
     * p50, p95, p99, max, overflow, bucket_width, buckets}. A name
     * that is both a leaf and a prefix keeps its value under "self".
     */
    void exportJson(std::ostream &os) const;
    /**
     * The same statistics as members of the object @p w has open, so
     * a caller can append members of its own before closing it.
     */
    void exportJsonMembers(json::Writer &w) const;

    /**
     * Fold @p other into this registry: counters and averages add,
     * histograms merge bucket-wise (first merge adopts the source
     * shape). Locks this registry, so concurrent merges from multiple
     * workers are safe; @p other must not be mutated during the call.
     */
    void mergeFrom(const StatsRegistry &other);

    void resetAll();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Average> averages_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace cwsp

#endif // CWSP_SIM_STATS_HH
