/**
 * @file
 * The benchmark's workloads as input lists. The seed only chooses
 * among fixed inputs (submission order, grid draw, interleaving seed);
 * the simulator sees the generated design points and options alone.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/batch_runner.hh"
#include "fault/campaign.hh"

namespace perfbench {

/** One op of a sweep workload. */
struct Op
{
    std::string label; ///< reference key, e.g. "paper/fft/cwsp"
    std::string app;
    std::string scheme;
    cwsp::driver::DesignPoint point;
};

/** Shuffle @p ops in place, deterministically in @p seed. */
void shuffleOps(std::vector<Op> &ops, std::uint64_t seed);

/** All 38 apps x 6 scheme presets, shuffled by @p seed. */
std::vector<Op> paperSweepOps(std::uint64_t seed);

/** Apps of the design sweep (compiled once, cwsp preset). */
const std::vector<std::string> &designApps();

/** Every point of the design grid, fixed order. */
std::vector<Op> designGrid();

/** Points of the design grid drawn per app by @p seed, shuffled. */
std::vector<Op> designSweepOps(std::uint64_t seed);

/** The crash campaign's options; @p seed sets the interleavings. */
cwsp::fault::CampaignOptions crashCampaignOptions(std::uint64_t seed,
                                                  unsigned jobs);

/** Cases the crash campaign's options imply (checked every pass). */
constexpr std::size_t kCrashCampaignCases = 804;

/** Deterministic 64-bit mix of @p x (splitmix64 finalizer). */
std::uint64_t mix64(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
