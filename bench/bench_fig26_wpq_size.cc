/**
 * @file
 * Figure 26: cWSP's slowdown with the NVM write pending queue sized
 * 2-32 entries (the figure table's fig26 row), plus shared-WPQ
 * contention with eight cores, normalized to the largest queue. The
 * contention half stays code: multithreaded runs are not design
 * points, so no table row can describe them.
 */

#include "bench_util.hh"

#include "workloads/kernels.hh"

using namespace cwsp;
using namespace cwsp::bench;

namespace {

/**
 * Eight cores hammering the two shared memory controllers — the
 * configuration where WPQ capacity actually matters (the paper's
 * 8-core setup).
 */
Tick
eightCoreCycles(std::uint32_t wpq_entries)
{
    workloads::ParallelParams pp;
    pp.numWorkers = 8;
    pp.itersPerWorker = 1'500;
    pp.wordsPerWorker = 1 << 12;
    pp.storesPerBurst = 6;
    pp.computeOps = 24;
    pp.atomicEvery = 64;

    auto cfg = core::makeSystemConfig("cwsp");
    cfg.hierarchy.wpqCapacity = wpq_entries;
    return workerCycles(workloads::buildParallelKernel(pp), cfg,
                        pp.numWorkers);
}

/** The 32-entry run every contention case is normalized to. */
Tick
wpq32Cycles()
{
    static const Tick cycles = eightCoreCycles(32);
    return cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    registerFigure("fig26");
    for (std::uint32_t entries : {2u, 4u, 8u, 16u, 24u, 32u}) {
        registerMetric(
            "fig26/8core-contention/wpq" + std::to_string(entries),
            "slowdown_vs_wpq32", [entries]() {
                Tick cycles = entries == 32 ? wpq32Cycles()
                                            : eightCoreCycles(entries);
                return static_cast<double>(cycles) /
                       static_cast<double>(wpq32Cycles());
            });
    }
    return benchMain(argc, argv);
}
