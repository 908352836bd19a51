/**
 * @file
 * Finite-difference knob sensitivity. For every runtime sizing knob
 * (PB/RBT/WPQ/WB capacities, persist-path bandwidth and latency, the
 * undo-log service factor, plus scheme-specific knobs), perturb the
 * default configuration geometrically (x0.5 and x2), re-simulate
 * through the batch engine, and score the knob by the relative cycle
 * span it induces:
 *
 *     span(app)  = (max - min over {lo, default, hi} cycles) /
 *                  default cycles
 *     score      = mean span over the profiled apps
 *
 * Knobs are ranked by descending score (ties: knob name ascending).
 * Because BatchRunner results are bit-identical for any jobs count,
 * the ranking is deterministic across --jobs values. Compiler knobs
 * are out of scope: they change the binary, not just the machine, so
 * a cycle delta would conflate code generation with sizing.
 */

#ifndef CWSP_OBS_SENSITIVITY_HH
#define CWSP_OBS_SENSITIVITY_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "driver/batch_runner.hh"
#include "workloads/workload.hh"

namespace cwsp::obs {

/** One knob's finite-difference result for one scheme. */
struct KnobSensitivity
{
    std::string knob;
    double loValue = 0.0;
    double defaultValue = 0.0;
    double hiValue = 0.0;
    /** Gmean cycles vs. the unpersisted baseline at each setting. */
    double loSlowdown = 0.0;
    double defaultSlowdown = 0.0;
    double hiSlowdown = 0.0;
    /** Mean relative cycle span over apps; the ranking key. */
    double score = 0.0;
    int rank = 0; ///< 1 = most sensitive
};

/** Ranked table for one scheme. */
struct SensitivityReport
{
    std::string scheme;
    std::vector<KnobSensitivity> knobs; ///< rank order
};

struct SensitivityOptions
{
    std::uint64_t maxInstrs = 2'000'000'000;
};

/**
 * Run the finite-difference pass for each non-baseline scheme in
 * @p schemes over @p apps. All design points go through @p runner in
 * one batch (parallel, result-cached). The baseline scheme is
 * skipped: it has no persistence knobs to perturb.
 */
std::vector<SensitivityReport>
runSensitivity(driver::BatchRunner &runner,
               const std::vector<std::string> &schemes,
               const std::vector<workloads::AppProfile> &apps,
               const SensitivityOptions &options = {});

/** Markdown ranking tables, one per scheme. */
void
writeSensitivityMarkdown(std::ostream &os,
                         const std::vector<SensitivityReport> &reports);

} // namespace cwsp::obs

#endif // CWSP_OBS_SENSITIVITY_HH
