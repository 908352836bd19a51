#include "bench_util.hh"

#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <regex>
#include <set>
#include <thread>

#include "cli.hh"
#include "compiler/pass_manager.hh"
#include "sim/json.hh"
#include "sim/logging.hh"

namespace cwsp::bench {

namespace {

/** A registered case: its google-benchmark name and its points. */
struct Case
{
    std::string name;
    std::vector<driver::DesignPoint> points;
};

/** Process-wide bench state. */
struct BenchState
{
    /** Made by benchMain from the runner flags, before any case runs. */
    std::unique_ptr<driver::BatchRunner> runner;
    /** Every registered case, in registration (= run) order. */
    std::vector<Case> cases;
    std::once_flag prefetched;
};

BenchState &
state()
{
    static BenchState s;
    return s;
}

/**
 * The cases google-benchmark 1.7.1 runs under `--benchmark_filter`:
 * an extended-regex search over each full name, negated by a leading
 * '-'; empty or "all" selects everything, a bad regex nothing.
 */
std::vector<const Case *>
selectedCases()
{
    std::string filter = benchmark::GetBenchmarkFilter();
    if (filter.empty() || filter == "all")
        filter = ".";
    const bool negate = filter[0] == '-';
    if (negate)
        filter.erase(0, 1);
    std::regex re;
    try {
        re = std::regex(filter, std::regex::extended);
    } catch (const std::regex_error &) {
        return {};
    }
    std::vector<const Case *> out;
    for (const auto &c : state().cases)
        if (std::regex_search(c.name, re) != negate)
            out.push_back(&c);
    return out;
}

/**
 * The parallel prefetch: evaluate the distinct design points of every
 * selected case across the worker pool, once, before the first case
 * reads its results from the runner's memo.
 */
void
prefetchSelected()
{
    std::call_once(state().prefetched, [] {
        std::vector<driver::DesignPoint> points;
        std::set<std::string> seen;
        for (const Case *c : selectedCases())
            for (const auto &p : c->points)
                if (seen.insert(driver::BatchRunner::pointKey(p)).second)
                    points.push_back(p);
        if (points.empty())
            return;
        auto &runner = batchRunner();
        runner.runAll(points);
        auto s = runner.stats();
        const unsigned jobs = runner.config().jobs;
        std::fprintf(stderr,
                     "batch: %zu points (%llu simulated, %llu disk "
                     "hits, %llu memory hits), %llu compiles (%llu "
                     "module-cache hits), jobs=%u\n",
                     points.size(),
                     (unsigned long long)s.simulated,
                     (unsigned long long)s.diskHits,
                     (unsigned long long)s.memoryHits,
                     (unsigned long long)s.modulesCompiled,
                     (unsigned long long)s.moduleCacheHits,
                     jobs != 0 ? jobs
                               : std::max(
                                     1u,
                                     std::thread::
                                         hardware_concurrency()));
    });
}

} // namespace

driver::BatchRunner &
batchRunner()
{
    auto &runner = state().runner;
    cwsp_assert(runner, "the batch runner is made by benchMain");
    return *runner;
}

Tick
workerCycles(std::unique_ptr<ir::Module> mod, core::SystemConfig config,
             std::uint32_t workers)
{
    config.numCores = workers;
    compiler::compileForWsp(*mod, config.compiler);
    core::WholeSystemSim sim(*mod, config);
    std::vector<core::ThreadSpec> threads;
    for (std::uint32_t t = 0; t < workers; ++t)
        threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
    return sim.run(threads).cycles;
}

double
slowdown(const core::RunResult &run, const core::RunResult &baseline)
{
    return static_cast<double>(run.cycles) /
           static_cast<double>(baseline.cycles);
}

double
gmean(const std::vector<double> &values)
{
    if (values.empty()) {
        cwsp_warn("gmean over an empty bucket — misconfigured sweep; "
                  "reporting NaN");
        return std::numeric_limits<double>::quiet_NaN();
    }
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

void
registerMetric(
    const std::string &bench_name, const std::string &counter_name,
    std::vector<driver::DesignPoint> points,
    std::function<double(const std::vector<core::RunResult> &)> fn)
{
    auto &cases = state().cases;
    const std::size_t index = cases.size();
    // Iterations(1) makes google-benchmark name the case
    // "<name>/iterations:1"; the filter matches that full name.
    cases.push_back({bench_name + "/iterations:1", std::move(points)});
    benchmark::RegisterBenchmark(
        bench_name.c_str(),
        [counter_name, fn, index](benchmark::State &gb) {
            prefetchSelected();
            double value = 0.0;
            for (auto _ : gb) {
                std::vector<core::RunResult> results;
                for (const auto &p : state().cases[index].points)
                    results.push_back(batchRunner().run(p));
                value = fn(results);
            }
            gb.counters[counter_name] = value;
        })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
}

void
registerMetric(const std::string &bench_name,
               const std::string &counter_name,
               std::function<double()> fn)
{
    registerMetric(bench_name, counter_name, {},
                   [fn](const std::vector<core::RunResult> &) {
                       return fn();
                   });
}

namespace {

/**
 * The bench body: configure the runner, then run the google-benchmark
 * cases argv selects (the first one starts the prefetch).
 */
int
runBenches(int argc, char **argv, const cli::Selection &sel)
{
    state().runner =
        std::make_unique<driver::BatchRunner>(sel.batchConfig());
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    // Component stats aggregated over every point this process
    // actually simulated (cache hits contribute nothing — their
    // stats were folded in when the point was first computed).
    if (!sel.statsJson.empty() &&
        !json::writeFile(sel.statsJson, [](std::ostream &os) {
            batchRunner().exportAggregateJson(os);
        }))
        return 1;
    return 0;
}

} // namespace

int
benchMain(int argc, char **argv)
{
    cli::Selection sel;
    const cli::Table table = {
        cli::selection(sel, "--jobs"),
        cli::selection(sel, "--cache-dir"),
        cli::selection(sel, "--no-result-cache"),
        cli::selection(sel, "--stats-json"),
    };
    return cli::run(
        argc, argv, "[options] [google-benchmark flags]", table,
        [&] { return runBenches(argc, argv, sel); }, true);
}

} // namespace cwsp::bench
