/**
 * @file
 * Compiler-side ablations beyond the paper's figures (DESIGN.md §7):
 *  - checkpoint pruning effectiveness (static checkpoints removed and
 *    the resulting run-time difference),
 *  - the cost of cutting register WAR hazards in the compiler instead
 *    of relying on cWSP's always-logged checkpoint stores,
 *  - region-length capping (Capri's 29-instruction compiler bound).
 */

#include "bench_util.hh"

using namespace cwsp;
using namespace cwsp::bench;

int
main(int argc, char **argv)
{
    const auto baseline = core::makeSystemConfig("baseline");
    const auto cwsp_cfg = core::makeSystemConfig("cwsp");

    for (const char *name : {"lulesh", "water-ns", "radix", "tpcc"}) {
        auto app = workloads::appByName(name);

        registerMetric(
            "ablation/pruned-checkpoint-fraction/" + app.name,
            "fraction", [app]() {
                compiler::CompileStats stats;
                workloads::buildApp(app, compiler::cwspOptions(),
                                    &stats);
                return stats.checkpointsInserted == 0
                           ? 0.0
                           : static_cast<double>(
                                 stats.checkpointsPruned) /
                                 static_cast<double>(
                                     stats.checkpointsInserted);
            });

        auto unpruned = cwsp_cfg;
        unpruned.compiler.pruneCheckpoints = false;
        registerMetric(
            "ablation/pruning-speedup/" + app.name, "speedup",
            {{app, baseline}, {app, cwsp_cfg}, {app, unpruned}},
            [](const std::vector<core::RunResult> &r) {
                return slowdown(r[2], r[0]) / slowdown(r[1], r[0]);
            });

        auto cuts = cwsp_cfg;
        cuts.compiler.cutRegisterAntideps = true;
        registerMetric(
            "ablation/register-war-cuts-overhead/" + app.name,
            "slowdown_ratio",
            {{app, baseline}, {app, cuts}, {app, cwsp_cfg}},
            [](const std::vector<core::RunResult> &r) {
                return slowdown(r[1], r[0]) / slowdown(r[2], r[0]);
            });

        registerMetric(
            "ablation/capri-region-cap-regions/" + app.name,
            "boundary_ratio", [app]() {
                compiler::CompileStats capped, natural;
                workloads::buildApp(app, compiler::capriOptions(),
                                    &capped);
                workloads::buildApp(app, compiler::cwspOptions(),
                                    &natural);
                return natural.boundaries == 0
                           ? 0.0
                           : static_cast<double>(capped.boundaries) /
                                 static_cast<double>(
                                     natural.boundaries);
            });
    }

    return benchMain(argc, argv);
}
