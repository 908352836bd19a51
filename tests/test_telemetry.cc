/**
 * @file
 * Time-series telemetry suite. Pins the two contracts ISSUE 8's
 * sampler must hold:
 *
 *  - determinism: the sampled series are byte-identical between an
 *    interpreted run, a commit-stream replay, and a checkpoint-forked
 *    crash run of the same (app, scheme, crash schedule) — samples
 *    are stamped with the scheduled boundary tick and probe state "as
 *    of" that boundary, so batching and forking cannot perturb them;
 *
 *  - recovery-phase tiling: every recovery window decomposes into
 *    detect + scan + undo replay + slice re-execution + resume with
 *    no gap and no overlap, matching the documented timing model
 *    (boot + records * perRecord + ops * perOp) exactly.
 *
 * The CounterSampler's cadence, geometry-gated restore, and JSON
 * export are unit-tested alongside.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/commit_stream.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "fault/fault_model.hh"
#include "sim/json.hh"
#include "sim/state_capture.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

const std::vector<std::string> kSchemes = {
    "baseline", "cwsp", "capri", "ido", "replaycache", "psp",
};

void
expectSameSeries(const sim::CounterSampler &a,
                 const sim::CounterSampler &b)
{
    EXPECT_EQ(a.period(), b.period());
    ASSERT_EQ(a.sampleCount(), b.sampleCount());
    EXPECT_EQ(a.sampleTicks(), b.sampleTicks());
    ASSERT_EQ(a.trackCount(), b.trackCount());
    for (std::size_t t = 0; t < a.trackCount(); ++t) {
        EXPECT_EQ(a.track(t).name, b.track(t).name);
        EXPECT_EQ(a.track(t).values, b.track(t).values)
            << "series " << a.track(t).name << " diverges";
    }
}

/** Samples land on scheduled boundaries, probed "as of" the
 *  boundary — never the caller's current tick. */
TEST(Telemetry, BoundaryStampsAndCadence)
{
    sim::CounterSampler s(100);
    std::size_t idx = s.ensureTrack("t", 0);
    s.bindProbe(idx, [](Tick at) { return at * 2 + 1; });

    s.maybeSample(0); // boundary 0
    s.maybeSample(50); // no crossing
    EXPECT_EQ(s.sampleCount(), 1u);

    // One advance across two boundaries: both sampled, stamped with
    // their own boundary tick (100 and 200), not the caller's 237.
    s.maybeSample(237);
    ASSERT_EQ(s.sampleCount(), 3u);
    EXPECT_EQ(s.sampleTicks(), (std::vector<Tick>{0, 100, 200}));
    EXPECT_EQ(s.track(idx).values,
              (std::vector<std::uint64_t>{1, 201, 401}));

    // Same boundary never sampled twice.
    s.maybeSample(299);
    EXPECT_EQ(s.sampleCount(), 3u);

    s.clearSamples();
    EXPECT_EQ(s.sampleCount(), 0u);
    s.maybeSample(0);
    EXPECT_EQ(s.sampleTicks(), (std::vector<Tick>{0}));
}

/** ensureTrack backfills zeros so late tracks stay rectangular, and
 *  re-registration rebinds without dropping samples. */
TEST(Telemetry, EnsureTrackIsIdempotentAndRectangular)
{
    sim::CounterSampler s(10);
    std::size_t a = s.ensureTrack("a", 1);
    s.bindProbe(a, [](Tick) { return 7u; });
    s.maybeSample(25); // boundaries 0, 10, 20

    std::size_t late = s.ensureTrack("late", 2);
    EXPECT_EQ(s.track(late).values.size(), 3u); // zero backfill
    EXPECT_EQ(s.ensureTrack("a", 1), a);        // find, not create
    EXPECT_EQ(s.trackCount(), 2u);
}

/** Restore is geometry-gated: wrong period or track count refuses
 *  (leaving the reader aligned); a matching sampler round-trips. */
TEST(Telemetry, CaptureRestoreGeometryGate)
{
    sim::CounterSampler src(50);
    std::size_t idx = src.ensureTrack("g", 0);
    src.bindProbe(idx, [](Tick at) { return at + 3; });
    src.maybeSample(120);

    std::vector<std::uint8_t> bytes;
    sim::StateWriter w(bytes);
    src.captureState(w);

    sim::CounterSampler same(50);
    same.ensureTrack("g", 0);
    sim::StateReader r1(bytes);
    EXPECT_TRUE(same.restoreState(r1));
    EXPECT_TRUE(r1.exhausted());
    expectSameSeries(src, same);
    // The cadence cursor restores too: the next boundary after the
    // captured window is 150, not a re-sample of an earlier one.
    same.maybeSample(150);
    EXPECT_EQ(same.sampleTicks().back(), 150u);

    sim::CounterSampler wrongPeriod(51);
    wrongPeriod.ensureTrack("g", 0);
    sim::StateReader r2(bytes);
    EXPECT_FALSE(wrongPeriod.restoreState(r2));
    EXPECT_TRUE(r2.exhausted()) << "failed restore must skip blob";
    EXPECT_EQ(wrongPeriod.sampleCount(), 0u);

    sim::CounterSampler wrongTracks(50);
    sim::StateReader r3(bytes);
    EXPECT_FALSE(wrongTracks.restoreState(r3));
    EXPECT_TRUE(r3.exhausted());
}

/** The stats-JSON section shape cwsp_run embeds as "time_series". */
TEST(Telemetry, ExportJsonShape)
{
    sim::CounterSampler s(10);
    std::size_t idx = s.ensureTrack("core0.x", 0);
    s.bindProbe(idx, [](Tick at) { return at / 10; });
    s.maybeSample(20);

    std::ostringstream os;
    json::Writer w(os);
    s.exportJson(w);
    EXPECT_EQ(os.str(),
              "{\"period\": 10, \"samples\": 3, "
              "\"ticks\": [0, 10, 20], "
              "\"tracks\": {\"core0.x\": [0, 1, 2]}}");
}

/**
 * Fault-free determinism: interpretation and commit-stream replay of
 * the same program produce byte-identical series for every scheme,
 * and the config-derived default cadence actually samples.
 */
TEST(Telemetry, SeriesIdenticalInterpretedVsReplay)
{
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});
        const Tick period = core::defaultSamplePeriod(cfg);
        ASSERT_GT(period, 0u);

        sim::CounterSampler interp(period);
        core::WholeSystemSim a(*mod, cfg);
        a.attachSampler(&interp);
        auto ra = a.run("main");

        sim::CounterSampler replay(period);
        core::WholeSystemSim b(*mod, cfg);
        b.attachSampler(&replay);
        auto rb = b.runReplay(stream);

        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_GT(interp.sampleCount(), 1u);
        expectSameSeries(interp, replay);

        // The same run without a sampler is identical in timing: the
        // sampler observes, never perturbs.
        core::WholeSystemSim c(*mod, cfg);
        EXPECT_EQ(c.run("main").cycles, ra.cycles);
    }
}

/**
 * Crash-path determinism: for a nested crash schedule, the series
 * from an interpreted crash run, a replay-driven crash run, and a
 * checkpoint-forked crash run are byte-identical. The capture pass
 * carries the sampler state in the checkpoint; the fork restores it.
 */
TEST(Telemetry, SeriesIdenticalAcrossCrashPaths)
{
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});
        const Tick period = core::defaultSamplePeriod(cfg);

        core::WholeSystemSim probe(*mod, cfg);
        const Tick tick = probe.runReplay(stream).cycles / 2;
        fault::CrashSchedule schedule{tick, 4096};

        sim::CounterSampler si(period);
        core::WholeSystemSim interp(*mod, cfg);
        interp.attachSampler(&si);
        auto ri = interp.runWithCrashes(threads, schedule, {},
                                        200'000'000);

        sim::CounterSampler sr(period);
        core::WholeSystemSim replay(*mod, cfg);
        replay.attachSampler(&sr);
        auto rr = replay.runWithCrashes(threads, schedule, {},
                                        200'000'000, &stream);

        EXPECT_EQ(ri.result.cycles, rr.result.cycles);
        EXPECT_EQ(ri.recoveryWindows, rr.recoveryWindows);
        expectSameSeries(si, sr);

        // Forked from a checkpoint captured with an identical
        // sampler geometry: the fork restores the prefix series.
        sim::CounterSampler sc(period);
        core::WholeSystemSim capture(*mod, cfg);
        capture.attachSampler(&sc);
        auto cr = capture.captureCheckpoints(threads, {tick},
                                             200'000'000, &stream);
        ASSERT_EQ(cr.checkpoints.size(), 1u);

        sim::CounterSampler sf(period);
        core::WholeSystemSim forked(*mod, cfg);
        forked.attachSampler(&sf);
        auto rf = forked.runWithCrashes(threads, schedule, {},
                                        200'000'000, &stream,
                                        cr.checkpoints[0].get());
        EXPECT_EQ(ri.result.cycles, rf.result.cycles);
        expectSameSeries(si, sf);
    }
}

/** A sampler with mismatched geometry gates the fork: the run falls
 *  back to from-scratch execution and stays byte-identical. */
TEST(Telemetry, SamplerGeometryGatesFork)
{
    std::vector<core::ThreadSpec> threads(1);
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});
    const Tick period = core::defaultSamplePeriod(cfg);

    core::WholeSystemSim probe(*mod, cfg);
    const Tick tick = probe.runReplay(stream).cycles / 2;
    fault::CrashSchedule schedule{tick};

    // Checkpoint captured WITHOUT a sampler…
    core::WholeSystemSim capture(*mod, cfg);
    auto cr = capture.captureCheckpoints(threads, {tick},
                                         200'000'000, &stream);

    sim::CounterSampler ref(period);
    core::WholeSystemSim scratch(*mod, cfg);
    scratch.attachSampler(&ref);
    auto rs = scratch.runWithCrashes(threads, schedule, {},
                                     200'000'000, &stream);

    // …offered to a run WITH one: the gate must fall back (a fork
    // would leave the prefix boundaries unsampled).
    sim::CounterSampler got(period);
    core::WholeSystemSim forked(*mod, cfg);
    forked.attachSampler(&got);
    auto rf = forked.runWithCrashes(threads, schedule, {},
                                    200'000'000, &stream,
                                    cr.checkpoints[0].get());
    EXPECT_EQ(rs.result.cycles, rf.result.cycles);
    expectSameSeries(ref, got);
}

/**
 * Recovery-phase tiling: for every scheme and a nested schedule,
 * each breakdown's phases sum to its window exactly, the breakdown
 * vector parallels recoveryWindows, and full (untruncated) windows
 * match the documented timing model per phase.
 */
TEST(Telemetry, RecoveryPhasesTileEveryWindow)
{
    using core::RecoveryPhase;
    namespace rt = core::recovery_timing;
    std::vector<core::ThreadSpec> threads(1);
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        const Tick tick = probe.runReplay(stream).cycles / 2;
        // The +1 nested failure lands inside the first recovery
        // window and truncates it; the tiling must still be exact.
        fault::CrashSchedule schedule{tick, 1, 4096};

        core::WholeSystemSim sim(*mod, cfg);
        auto out = sim.runWithCrashes(threads, schedule, {},
                                      200'000'000, &stream);
        ASSERT_EQ(out.recoveryBreakdowns.size(),
                  out.recoveryWindows.size());
        ASSERT_FALSE(out.recoveryBreakdowns.empty());

        for (std::size_t i = 0; i < out.recoveryWindows.size();
             ++i) {
            SCOPED_TRACE("window " + std::to_string(i));
            const auto &b = out.recoveryBreakdowns[i];
            EXPECT_EQ(b.window, out.recoveryWindows[i]);
            Tick sum = 0;
            for (std::size_t p = 0; p < core::kNumRecoveryPhases;
                 ++p)
                sum += b.phase[p];
            EXPECT_EQ(sum, b.window) << "phases do not tile";
            // Resume is a zero-duration end marker.
            EXPECT_EQ(
                b.phase[static_cast<int>(RecoveryPhase::Resume)],
                0u);

            const Tick full = rt::kBootCycles +
                              b.replayRecords *
                                  rt::kCyclesPerReplayRecord +
                              b.sliceOps * rt::kCyclesPerSliceOp;
            EXPECT_LE(b.window, full);
            if (b.window == full) {
                // Untruncated: each phase carries exactly its
                // modeled cost.
                EXPECT_EQ(b.phase[static_cast<int>(
                              RecoveryPhase::UndoReplay)],
                          b.replayRecords *
                              rt::kCyclesPerReplayRecord);
                EXPECT_EQ(b.phase[static_cast<int>(
                              RecoveryPhase::SliceReexec)],
                          b.sliceOps * rt::kCyclesPerSliceOp);
                EXPECT_EQ(b.phase[static_cast<int>(
                              RecoveryPhase::Detect)] +
                              b.phase[static_cast<int>(
                                  RecoveryPhase::Scan)],
                          rt::kBootCycles);
            }
        }
    }
}

/** Battery-backed recovery is boot-only: a single capri crash yields
 *  exactly one kBootCycles window split detect=16 / scan=48. */
TEST(Telemetry, BatteryBackedWindowPinned)
{
    namespace rt = core::recovery_timing;
    std::vector<core::ThreadSpec> threads(1);
    auto cfg = core::makeSystemConfig("capri");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto stream = core::recordCommitStream(*mod, "main", {});

    core::WholeSystemSim probe(*mod, cfg);
    const Tick tick = probe.runReplay(stream).cycles / 2;

    core::WholeSystemSim sim(*mod, cfg);
    auto out = sim.runWithCrashes(threads, {tick}, {}, 200'000'000,
                                  &stream);
    ASSERT_EQ(out.recoveryBreakdowns.size(), 1u);
    const auto &b = out.recoveryBreakdowns[0];
    EXPECT_EQ(b.window, rt::kBootCycles);
    EXPECT_EQ(b.replayRecords, 0u);
    EXPECT_EQ(b.sliceOps, 0u);
    EXPECT_EQ(b.phase[0], 16u); // detect
    EXPECT_EQ(b.phase[1], rt::kBootCycles - 16); // scan
    EXPECT_EQ(b.phase[2], 0u);
    EXPECT_EQ(b.phase[3], 0u);
    EXPECT_EQ(b.phase[4], 0u);
}

/** Counter tracks merge into the Chrome export and the recovery
 *  phases appear as trace spans on crash runs. */
TEST(Telemetry, ChromeExportCarriesCounterTracks)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);

    sim::TraceBuffer trace(1 << 14);
    sim::CounterSampler sampler(core::defaultSamplePeriod(cfg));
    core::WholeSystemSim sim(*mod, cfg);
    sim.attachTrace(&trace);
    sim.attachSampler(&sampler);
    sim.run("main");
    ASSERT_GT(sampler.sampleCount(), 0u);

    std::ostringstream os;
    trace.exportChromeJson(os, &sampler);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("pb_occupancy"), std::string::npos);
    EXPECT_NE(json.find("wpq_depth"), std::string::npos);
}

} // namespace
} // namespace cwsp
