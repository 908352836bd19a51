/**
 * @file
 * Multicore scaling (beyond the paper's single aggregate): cWSP's
 * overhead as 1→8 cores share the two memory controllers and their
 * WPQs. The paper's design goal is that MC speculation keeps
 * boundaries stall-free even under 8-core NUMA persist traffic; here
 * the overhead per core count quantifies it for a store-burst
 * workload and a compute-heavy workload.
 */

#include "bench_util.hh"

#include "workloads/kernels.hh"

using namespace cwsp;
using namespace cwsp::bench;

namespace {

/** cwsp's cycles over the baseline's on @p workers cores. */
double
overhead(const std::function<std::unique_ptr<ir::Module>()> &build,
         std::uint32_t workers)
{
    return static_cast<double>(workerCycles(
               build(), core::makeSystemConfig("cwsp"), workers)) /
           static_cast<double>(workerCycles(
               build(), core::makeSystemConfig("baseline"), workers));
}

/** The parallel kernel: bursts of @p stores, @p compute ops apart. */
workloads::ParallelParams
parallel(std::uint32_t workers, std::uint32_t stores,
         std::uint32_t compute, std::uint32_t atomic_every)
{
    return {.wordsPerWorker = 1 << 12,
            .itersPerWorker = 2'000,
            .numWorkers = workers,
            .storesPerBurst = stores,
            .computeOps = compute,
            .atomicEvery = atomic_every};
}

} // namespace

int
main(int argc, char **argv)
{
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        // SPLASH3-class shared-read / partitioned-write mix (the
        // suites the paper runs multithreaded).
        registerMetric(
            "multicore/splash-mix/cores" + std::to_string(workers),
            "slowdown", [workers]() {
                auto mp = workloads::appByName("ocg").mix;
                mp.iterations = 2'500;
                return overhead(
                    [&] { return workloads::buildMixKernel(mp, workers); },
                    workers);
            });
    }
    for (std::uint32_t workers : {1u, 2u, 4u, 8u}) {
        const std::pair<std::string, workloads::ParallelParams> kernels[] =
            {{"store-heavy", parallel(workers, 4, 8, 64)},
             {"compute-heavy", parallel(workers, 1, 40, 256)}};
        for (const auto &[name, params] : kernels) {
            registerMetric(
                "multicore/" + name + "/cores" + std::to_string(workers),
                "slowdown", [pp = params, workers]() {
                    return overhead(
                        [&] { return workloads::buildParallelKernel(pp); },
                        workers);
                });
        }
    }
    return benchMain(argc, argv);
}
