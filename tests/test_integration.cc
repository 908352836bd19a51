/**
 * @file
 * Cross-cutting integration tests: the public API surface as a
 * downstream user exercises it — configuration presets, stats
 * dumping, multi-run reuse of one WholeSystemSim, scheme/NVM
 * cross-products, and determinism of full timed runs.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/commit_stream.hh"
#include "core/whole_system_sim.hh"
#include "mem/nvm_device.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

TEST(Integration, StatsDumpContainsComponentCounters)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim.run("main");
    std::ostringstream os;
    sim.dumpStats(os);
    std::string text = os.str();
    for (const char *key :
         {"core0.instrs", "core0.cycles", "core0.wb.inserts",
          "scheme.pbFullStalls", "scheme.rbtFullStalls",
          "mem.l1.accesses", "mem.nvm.reads", "mc0.wpq.admissions",
          "mc1.wpq.admissions", "mc0.loggedStores"}) {
        EXPECT_NE(text.find(key), std::string::npos) << key;
    }
}

TEST(Integration, SimIsReusableAcrossRuns)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    auto r1 = sim.run("main");
    auto r2 = sim.run("main");
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.instructions, r2.instructions);
    EXPECT_EQ(r1.returnValues[0], r2.returnValues[0]);

    // A crash run does not poison later plain runs.
    sim.runWithCrash({core::ThreadSpec{}}, r1.cycles / 2);
    auto r3 = sim.run("main");
    EXPECT_EQ(r1.cycles, r3.cycles);
}

TEST(Integration, TimedRunsAreDeterministic)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto app = workloads::appByName("tpcc");
    auto m1 = workloads::buildApp(app, cfg.compiler);
    auto m2 = workloads::buildApp(app, cfg.compiler);
    core::WholeSystemSim s1(*m1, cfg), s2(*m2, cfg);
    auto r1 = s1.run("main");
    auto r2 = s2.run("main");
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.returnValues[0], r2.returnValues[0]);
}

TEST(Integration, SchemeNvmCrossProductRuns)
{
    // Every scheme on every NVM preset completes and orders sanely.
    auto app = workloads::appByName("radix");
    for (const char *tech : {"pmem", "sttram", "reram"}) {
        Tick base_cycles = 0;
        for (const char *scheme :
             {"baseline", "cwsp", "capri", "ido", "replaycache"}) {
            auto cfg = core::makeSystemConfig(scheme);
            cfg.hierarchy.tech = mem::nvmTechByName(tech);
            auto mod = workloads::buildApp(app, cfg.compiler);
            core::WholeSystemSim sim(*mod, cfg);
            auto r = sim.run("main");
            EXPECT_GT(r.cycles, 0u) << scheme << "/" << tech;
            if (std::string(scheme) == "baseline")
                base_cycles = r.cycles;
            else
                EXPECT_GE(r.cycles, base_cycles)
                    << scheme << "/" << tech;
        }
    }
}

TEST(Integration, ConfigPresetsAreInternallyConsistent)
{
    auto cw = core::makeSystemConfig("cwsp");
    EXPECT_TRUE(cw.compiler.instrument);
    EXPECT_TRUE(cw.compiler.pruneCheckpoints);
    EXPECT_TRUE(cw.hierarchy.dropLlcDirtyEvictions);
    EXPECT_EQ(cw.hierarchy.wbPersistDelay,
              cw.scheme.features.wbDelay);
    EXPECT_EQ(cw.hierarchy.wpqLoadDelay,
              cw.scheme.features.wpqDelay);

    auto psp = core::makeSystemConfig("psp");
    EXPECT_FALSE(psp.hierarchy.hasDramCache);
    EXPECT_FALSE(psp.compiler.instrument);

    auto capri = core::makeSystemConfig("capri");
    EXPECT_EQ(capri.compiler.maxRegionInstrs, 29u);

    auto ido = core::makeSystemConfig("ido");
    EXPECT_TRUE(ido.scheme.features.stallAtBoundaries);
}

TEST(Integration, RunRespectsInstructionBudget)
{
    auto cfg = core::makeSystemConfig("baseline");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    EXPECT_THROW(sim.run("main", {}, 1000), std::runtime_error);
}

/**
 * Every execution path enforces the instruction budget, not only
 * run(): stream replay, both capture sources, and each source of a
 * crash run — the interpreted epoch, the replayed epoch, and the
 * post-crash completion, interpreted or applied from the stream.
 */
TEST(Integration, EveryPathRespectsInstructionBudget)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});
    const std::vector<core::ThreadSpec> threads(1);
    core::WholeSystemSim sim(*mod, cfg);
    const Tick end = sim.run("main").cycles;
    constexpr std::uint64_t kTight = 1000;

    EXPECT_THROW(sim.runReplay(stream, kTight), std::runtime_error);
    EXPECT_THROW(sim.captureCheckpoints(threads, {end / 2}, kTight),
                 std::runtime_error);
    EXPECT_THROW(
        sim.captureCheckpoints(threads, {end / 2}, kTight, &stream),
        std::runtime_error);
    const fault::CrashSchedule late{end / 2};
    EXPECT_THROW(sim.runWithCrashes(threads, late, {}, kTight),
                 std::runtime_error);
    EXPECT_THROW(sim.runWithCrashes(threads, late, {}, kTight, &stream),
                 std::runtime_error);

    // An early failure that resumes mid-program: the pre-crash epoch
    // fits half the program's steps, the completion does not.
    const fault::CrashSchedule early{end / 8};
    const std::uint64_t half = stream.steps / 2;
    auto fits = sim.runWithCrashes(threads, early, {}, stream.steps,
                                   &stream);
    ASSERT_TRUE(fits.crashed);
    ASSERT_NE(fits.resumeRegions[0], 0u);
    ASSERT_GT(fits.reexecutedInstrs, half);
    EXPECT_THROW(sim.runWithCrashes(threads, early, {}, half),
                 std::runtime_error);
    EXPECT_THROW(sim.runWithCrashes(threads, early, {}, half, &stream),
                 std::runtime_error);
}

TEST(Integration, ThreadCountValidation)
{
    auto cfg = core::makeSystemConfig("cwsp");
    cfg.numCores = 2;
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    std::vector<core::ThreadSpec> three(3);
    EXPECT_THROW(sim.run(three), std::logic_error);
}

TEST(Integration, CrashBeyondCompletionIsBenign)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    Tick full = sim.run("main").cycles;
    auto out =
        sim.runWithCrash({core::ThreadSpec{}}, full * 2);
    EXPECT_FALSE(out.crashed);
}

} // namespace
} // namespace cwsp
