/**
 * @file
 * Shared machinery for the figure-reproduction benches. Each bench
 * binary registers one google-benchmark case per bar/series point of
 * its figure and reports the figure's metric as a counter; regular
 * figures are registered from the figure table (figures.cc).
 *
 * All simulation goes through one driver::BatchRunner, the only
 * result cache: every case names the design points it reads, and
 * when the first case starts, the points of every case that
 * `--benchmark_filter` selects are evaluated across a worker pool
 * (the `--jobs N` flag, stripped by benchMain() before
 * google-benchmark sees argv). The runner memoizes each point in
 * process under its canonical content key and in the persistent
 * cross-process result cache, so e.g. the 38-app baseline is
 * simulated once across all bench binaries rather than once per
 * process.
 */

#ifndef CWSP_BENCH_BENCH_UTIL_HH
#define CWSP_BENCH_BENCH_UTIL_HH

#include <benchmark/benchmark.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "workloads/workload.hh"

namespace cwsp::bench {

/**
 * Compile @p mod for @p config and run it on @p workers cores, core t
 * calling `worker(t)`; the run's cycles. Multithreaded runs are not
 * design points, so they bypass the batch runner and its caches.
 */
Tick workerCycles(std::unique_ptr<ir::Module> mod,
                  core::SystemConfig config, std::uint32_t workers);

/** Cycles of @p run over those of @p baseline. */
double slowdown(const core::RunResult &run,
                const core::RunResult &baseline);

/**
 * Geometric mean. An empty input yields NaN (and a warning): a
 * sweep bucket that never filled must be visible in the output, not
 * silently reported as 0.
 */
double gmean(const std::vector<double> &values);

/**
 * Register one benchmark that runs @p points through the batch
 * runner and reports @p fn of their results (in the same order) as
 * the counter @p counter_name. The points join the parallel prefetch
 * when the case is selected.
 */
void registerMetric(
    const std::string &bench_name, const std::string &counter_name,
    std::vector<driver::DesignPoint> points,
    std::function<double(const std::vector<core::RunResult> &)> fn);

/** registerMetric() for a case that reads no design point. */
void registerMetric(const std::string &bench_name,
                    const std::string &counter_name,
                    std::function<double()> fn);

/**
 * Register the cases of figure @p id (e.g. "fig13") from its row of
 * the figure table (figures.cc); fatal when no row has that id. Each
 * case reads the design points its value needs, so a mean reads the
 * same runs as its bars, whichever cases the filter selects.
 */
void registerFigure(const std::string &id);

/** The process-wide batch engine behind every case. */
driver::BatchRunner &batchRunner();

/**
 * Shared main body for every bench binary: strips the runner flags
 * (`--jobs N`, `--cache-dir DIR`, `--no-result-cache`, `--stats-json
 * FILE`) through the tools' option table (a bad value exits 2 with the
 * usage), then hands the rest of argv to google-benchmark and runs
 * the selected cases. With `--stats-json` the runner's aggregate
 * component statistics are written as hierarchical JSON on exit.
 */
int benchMain(int argc, char **argv);

} // namespace cwsp::bench

#endif // CWSP_BENCH_BENCH_UTIL_HH
