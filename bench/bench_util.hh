/**
 * @file
 * Shared machinery for the figure-reproduction benches: per-app
 * simulation runs, slowdown computation against cached baselines,
 * and suite geometric means. Each bench binary registers one
 * google-benchmark case per bar/series point of its figure and
 * reports the figure's metric as a counter.
 *
 * All simulation goes through the driver::BatchRunner engine:
 * design points registered via registerSweep()/prefetchPoint() are
 * evaluated across a worker pool (the `--jobs N` flag, stripped by
 * benchMain() before google-benchmark sees argv) before the cases
 * run, and every result is memoized in the persistent cross-process
 * result cache, so e.g. the 38-app baseline is simulated once across
 * all bench binaries rather than once per process.
 */

#ifndef CWSP_BENCH_BENCH_UTIL_HH
#define CWSP_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "workloads/workload.hh"

namespace cwsp::bench {

/** Run @p app under @p config (compiling it accordingly, uncached). */
core::RunResult runApp(const workloads::AppProfile &app,
                       const core::SystemConfig &config);

/**
 * Slowdown of @p config over the same app on @p baseline_config.
 * Results are memoized per (app, config-key) through the batch
 * runner's memory and on-disk caches, so each simulation runs at
 * most once across all bench processes.
 */
double slowdown(const workloads::AppProfile &app,
                const core::SystemConfig &config,
                const core::SystemConfig &baseline_config,
                const std::string &config_key,
                core::RunResult *config_result = nullptr,
                const std::string &baseline_key = "baseline");

/** Cached run keyed by (app, key). Thread-safe. */
const core::RunResult &cachedRun(const workloads::AppProfile &app,
                                 const core::SystemConfig &config,
                                 const std::string &key);

/**
 * Geometric mean. An empty input yields NaN (and a warning): a
 * sweep bucket that never filled must be visible in the output, not
 * silently reported as 0.
 */
double gmean(const std::vector<double> &values);

/**
 * Register one benchmark that runs @p fn once and reports its return
 * value as the counter @p counter_name.
 */
void registerMetric(const std::string &bench_name,
                    const std::string &counter_name,
                    std::function<double()> fn);

/** One design point of a sensitivity sweep. */
struct SweepPoint
{
    std::string label;
    core::SystemConfig config;
    /**
     * Per-point baseline override (the Fig. 27 pattern: each NVM
     * technology normalizes to a baseline on the same technology).
     * Unset = use registerSweep's common baseline.
     */
    std::optional<core::SystemConfig> baselineOverride;
    /** Memo key of the (possibly overridden) baseline. */
    std::string baselineKey = "baseline";
};

/**
 * Register a full sensitivity sweep (Figs. 13/14/21-27 pattern): for
 * every sweep point, per-app slowdown bars over @p baseline plus
 * per-suite and overall geometric means. All design points are
 * queued for benchMain()'s parallel prefetch. Per-app results are
 * keyed, not appended, so re-running a case (e.g. with
 * --benchmark_repetitions) cannot duplicate bars in the gmeans.
 */
void registerSweep(const std::string &fig,
                   const std::vector<SweepPoint> &points,
                   const core::SystemConfig &baseline);

/**
 * Queue one design point for the parallel prefetch pass; its result
 * lands in the cachedRun() memo under @p key.
 */
void prefetchPoint(const workloads::AppProfile &app,
                   const core::SystemConfig &config,
                   const std::string &key);

/** The process-wide batch engine behind cachedRun()/prefetch. */
driver::BatchRunner &batchRunner();

/**
 * Shared main body for every bench binary: strips the runner flags
 * (`--jobs N`, `--cache-dir DIR`, `--no-result-cache`, `--stats-json
 * FILE`) through the tools' option table (a bad value exits 2 with the
 * usage), evaluates all queued design points across the worker pool,
 * then hands the rest of argv to google-benchmark and runs the
 * registered cases. With `--stats-json` the runner's aggregate
 * component statistics are written as hierarchical JSON on exit.
 */
int benchMain(int argc, char **argv);

} // namespace cwsp::bench

#endif // CWSP_BENCH_BENCH_UTIL_HH
