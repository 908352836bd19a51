/**
 * @file
 * Sample statistics and process-resource readings the benchmark
 * reports: medians, the tail percentile rule, CPU time, and peak RSS.
 */

#ifndef PERFBENCH_STATS_UTIL_HH
#define PERFBENCH_STATS_UTIL_HH

#include <cstddef>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** A percentile read off a sample set. */
struct Tail
{
    double percentile = 0; ///< e.g. 95 for p95; 100 = the maximum
    double value = 0;
    std::size_t samples = 0; ///< size of the sample set
    std::size_t beyond = 0;  ///< samples strictly above the rank
};

/**
 * The highest percentile of {50, 90, 95, 99, 99.9} that leaves at
 * least ten samples beyond its nearest-rank position in a set of
 * @p basis samples (0 = v.size()), read off @p v. Passing the sample
 * count of one pass keeps the chosen percentile the same however many
 * passes a run completes. When none qualifies (a basis under twenty
 * samples) the maximum is returned as percentile 100.
 */
Tail tailPercentile(std::vector<double> v, std::size_t basis = 0);

/** User + system CPU seconds of this process and its waited children. */
double cpuSeconds();

/** Restart the peak-RSS high-water mark (Linux clear_refs). */
void resetPeakRss();

/** Peak resident set size of this process since the last reset, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_STATS_UTIL_HH
