/**
 * @file
 * Fault-injection campaign tests: nested crash schedules (including
 * failures inside the recovery window), media-fault detection and the
 * degradation ladder, battery-backed continuation, atomic-resume
 * recovery, trace-driven crash-point enumeration (interpreted and
 * replay-driven), the page-wise globals checker, the campaign's
 * context-scoped checkpoint forking and its fallback ledger, and a
 * bounded end-to-end campaign smoke over the engine itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "compiler/compiler.hh"
#include "core/commit_stream.hh"
#include "core/consistency_checker.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "fault/campaign.hh"
#include "fault/crash_points.hh"
#include "interp/interpreter.hh"
#include "workloads/kernels.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

using core::recovery_timing::kBootCycles;

struct Golden
{
    core::SystemConfig cfg;
    std::unique_ptr<ir::Module> mod;
    Word result = 0;
    interp::SparseMemory memory;
    fault::CrashPointSet points;
    Tick pivot = 0; ///< preferred crash tick for schedules
};

Golden
makeGolden(const char *app_name, const char *scheme,
           std::size_t points_per_kind = 2)
{
    Golden g;
    g.cfg = core::makeSystemConfig(scheme);
    g.mod = workloads::buildApp(workloads::appByName(app_name),
                                g.cfg.compiler);
    g.result =
        interp::runToCompletion(*g.mod, g.memory, "main", {});
    g.points = fault::enumerateCrashPoints(
        *g.mod, g.cfg, {core::ThreadSpec{}}, points_per_kind);
    // Pivot like the campaign does: a mid-run point, preferring the
    // latest undo-append edge so log records are live at the crash.
    const auto &pts = g.points.points;
    EXPECT_FALSE(pts.empty());
    g.pivot = pts[pts.size() / 2].tick;
    for (const auto &p : pts) {
        if (p.kind == fault::CrashPointKind::UndoAppend)
            g.pivot = p.tick;
    }
    return g;
}

core::CrashRunResult
runSchedule(const Golden &g, fault::CrashSchedule sched,
            fault::FaultPlan plan = {})
{
    core::WholeSystemSim sim(*g.mod, g.cfg);
    auto out = sim.runWithCrashes({core::ThreadSpec{}}, sched, plan,
                                  200'000'000);
    EXPECT_EQ(out.result.returnValues[0], g.result)
        << "schedule " << sched.describe();
    auto check = core::checkGlobals(*g.mod, g.memory, sim.memory());
    EXPECT_TRUE(check.consistent)
        << "schedule " << sched.describe() << " diverges ("
        << check.totalDivergences << " words, first in "
        << (check.divergences.empty()
                ? std::string("?")
                : check.divergences[0].global)
        << ")";
    return out;
}

TEST(FaultCampaign, NestedMidBootCrashStaysConsistent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    auto out = runSchedule(g, {g.pivot, 1});
    EXPECT_EQ(out.faults.crashesInjected, 2u);
    EXPECT_EQ(out.faults.nestedCrashes, 1u);
    EXPECT_EQ(out.faults.recoveryCrashes, 1u);
}

TEST(FaultCampaign, NestedMidReplayReentryIsIdempotent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    // Second failure just past boot, inside undo-record replay. The
    // run itself asserts the second replay pass converges to the same
    // durable image (the protocol's idempotence obligation).
    auto out = runSchedule(g, {g.pivot, kBootCycles + 2});
    EXPECT_EQ(out.faults.recoveryCrashes, 1u);
    EXPECT_GE(out.faults.undoReplayPasses, 2u);
}

TEST(FaultCampaign, PostRecoveryNestedCrashKeepsTailStores)
{
    // Regression: under ReplayCache a core can *finish* inside a
    // short second epoch while its tail stores still sit in the
    // replay buffer (persist time = never). Resume selection must pin
    // such a region unpersisted and re-execute it — an earlier
    // version marked the core done and silently dropped the tail.
    Golden g = makeGolden("fft", "replaycache");
    auto out = runSchedule(g, {g.pivot, 4096});
    EXPECT_EQ(out.faults.nestedCrashes, 1u);
    EXPECT_EQ(out.faults.recoveryCrashes, 0u);
}

TEST(FaultCampaign, TornAppendDroppedExactly)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(
        fault::MediaFault{fault::FaultKind::TornAppend, 0, 0, 0, 0});
    auto out = runSchedule(g, {g.pivot}, plan);
    EXPECT_EQ(out.faults.faultsApplied, 1u);
    EXPECT_GE(out.faults.corruptRecordsDetected, 1u);
    EXPECT_GE(out.faults.tornTailsDropped, 1u);
    // Dropping the torn tail is exact: no deeper degradation.
    EXPECT_EQ(out.faults.fullRestarts, 0u);
}

TEST(FaultCampaign, BitFlipDetectedNeverSilent)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(
        fault::MediaFault{fault::FaultKind::BitFlip, 0, 0, 0, 17});
    auto out = runSchedule(g, {g.pivot}, plan);
    ASSERT_EQ(out.faults.faultsApplied, 1u);
    // The CRC scan must catch the flip, and a flipped record is never
    // attributable to a torn tail — it degrades (step 2 or 3) rather
    // than being silently replayed. runSchedule already verified the
    // degraded run still converges to the golden state.
    EXPECT_GE(out.faults.corruptRecordsDetected, 1u);
    EXPECT_TRUE(out.faults.degraded());
}

TEST(FaultCampaign, StaleCheckpointSlotCaughtByValidation)
{
    Golden g = makeGolden("bzip2", "cwsp");
    fault::FaultPlan plan;
    plan.faults.push_back(fault::MediaFault{
        fault::FaultKind::StaleCheckpointSlot, 0, 0, 0, 0});
    auto out = runSchedule(g, {g.pivot}, plan);
    if (out.faults.faultsApplied > 0) {
        EXPECT_GE(out.faults.staleSlotsDetected, 1u);
        EXPECT_GE(out.faults.fullRestarts, 1u);
    }
}

TEST(FaultCampaign, BatteryBackedCapriLosesNothing)
{
    // Capri's battery flushes the redo buffer and execution context
    // on failure (Section II-C): recovery is an exact continuation —
    // no lost work, no undo replay, a boot-only recovery window.
    Golden g = makeGolden("fft", "capri");
    auto out = runSchedule(g, {g.pivot});
    EXPECT_TRUE(out.crashed);
    EXPECT_EQ(out.lostWork, 0u);
    EXPECT_EQ(out.faults.undoReplayPasses, 0u);
    ASSERT_EQ(out.recoveryWindows.size(), 1u);
    EXPECT_EQ(out.recoveryWindows[0], kBootCycles);

    auto nested = runSchedule(g, {g.pivot, 4096});
    EXPECT_EQ(nested.lostWork, 0u);
    EXPECT_EQ(nested.faults.nestedCrashes, 1u);
}

TEST(FaultCampaign, ResumeAfterAtomicRecovers)
{
    // Exhaustively sweep a tiny atomic-transaction kernel so at least
    // one crash lands between an atomic's WPQ admission and the next
    // boundary — the resumeAfterAtomic path: re-enter the region but
    // skip the (non-idempotent) atomic, reloading its destination
    // from the post-atomic checkpoint slot.
    workloads::AtomicMixParams ap;
    ap.tableWords = 1 << 6;
    ap.counters = 4;
    ap.txs = 12;
    ap.opsPerTx = 4;
    ap.seed = 4242;
    auto mod = workloads::buildAtomicMixKernel(ap);
    auto cfg = core::makeSystemConfig("cwsp");
    compiler::compileForWsp(*mod, cfg.compiler);

    interp::SparseMemory golden_mem;
    Word golden =
        interp::runToCompletion(*mod, golden_mem, "main", {});
    core::WholeSystemSim sim(*mod, cfg);
    Tick full = sim.run("main").cycles;

    std::uint64_t atomic_resumes = 0;
    for (Tick crash = 1; crash < full; crash += 2) {
        auto out = sim.runWithCrash({core::ThreadSpec{}}, crash);
        ASSERT_EQ(out.result.returnValues[0], golden) << "@" << crash;
        auto check =
            core::checkGlobals(*mod, golden_mem, sim.memory());
        ASSERT_TRUE(check.consistent) << "@" << crash;
        atomic_resumes += out.faults.atomicResumes;
    }
    EXPECT_GE(atomic_resumes, 1u);
}

TEST(FaultCampaign, CrashPointCollectorDedupsSubsamplesAndBounds)
{
    fault::CrashPointCollector c;
    auto feed = [&c](sim::TraceEventKind kind, Tick tick,
                     Tick duration = 0) {
        sim::TraceEvent ev;
        ev.kind = kind;
        ev.tick = tick;
        ev.duration = duration;
        c.onTraceEvent(ev);
    };
    feed(sim::TraceEventKind::RegionBegin, 10);
    feed(sim::TraceEventKind::UndoAppend, 10); // same instant: dedup
    feed(sim::TraceEventKind::UndoAppend, 20);
    feed(sim::TraceEventKind::UndoAppend, 30);
    feed(sim::TraceEventKind::UndoAppend, 40);
    feed(sim::TraceEventKind::UndoAppend, 1000); // beyond the run
    feed(sim::TraceEventKind::SchemeDrain, 100, 8);

    auto all = c.points(0, 500);
    // 10+1 (region_begin), 21/31/41 (undo_append), 104 (mid_drain);
    // the tick-11 undo_append deduped, the tick-1001 point out of run.
    ASSERT_EQ(all.size(), 5u);
    EXPECT_TRUE(std::is_sorted(
        all.begin(), all.end(),
        [](const fault::CrashPoint &a, const fault::CrashPoint &b) {
            return a.tick < b.tick;
        }));
    EXPECT_EQ(all[0].kind, fault::CrashPointKind::RegionBegin);

    // The run bound applies *before* subsampling: the kept extremes
    // of undo_append are 21 and 41, never the out-of-run 1001.
    auto two = c.points(2, 500);
    std::vector<Tick> undo;
    for (const auto &p : two) {
        if (p.kind == fault::CrashPointKind::UndoAppend)
            undo.push_back(p.tick);
    }
    ASSERT_EQ(undo.size(), 2u);
    EXPECT_EQ(undo.front(), 21u);
    EXPECT_EQ(undo.back(), 41u);
}

TEST(FaultCampaign, RunCaseFlagsDivergenceAgainstGolden)
{
    // The campaign's differential oracle must notice corruption: hand
    // runCase a golden reference whose memory differs by one global
    // word and require a failing, explained result.
    Golden g = makeGolden("fft", "cwsp", 1);
    fault::GoldenRef ref;
    ref.module = g.mod.get();
    ref.config = &g.cfg;
    ref.result = g.result;
    interp::SparseMemory tampered = g.memory;
    const auto &gl = g.mod->globals();
    ASSERT_FALSE(gl.empty());
    tampered.write(gl.front().base,
                   tampered.read(gl.front().base) ^ 1);
    ref.memory = &tampered;
    std::vector<arch::IoRecord> io;
    ref.ioStream = &io;

    fault::CampaignCase c;
    c.app = "fft";
    c.scheme = "cwsp";
    c.schedule = fault::CrashSchedule{g.pivot};
    auto r = fault::runCase(c, ref);
    EXPECT_TRUE(r.ran);
    EXPECT_FALSE(r.pass);
    EXPECT_FALSE(r.consistent);
    EXPECT_GE(r.divergences, 1u);
    EXPECT_FALSE(r.detail.empty());
}

TEST(FaultCampaign, CampaignSmokeAllPass)
{
    fault::CampaignOptions opt;
    opt.apps = {"fft"};
    opt.schemes = {"cwsp", "capri", "replaycache"};
    opt.pointsPerKind = 1;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    EXPECT_TRUE(report.allPassed());
    EXPECT_GT(report.casesRun, 0u);
    EXPECT_EQ(report.casesPassed, report.casesRun);
    EXPECT_GT(report.totals.crashesInjected, 0u);
    EXPECT_GT(report.totals.nestedCrashes, 0u);
    // cwsp and replaycache carry media cases; capri (battery, no log
    // media) contributes crash-only cases.
    EXPECT_GT(report.totals.faultsApplied, 0u);

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"cases_run\""), std::string::npos);
    EXPECT_NE(os.str().find("\"totals\""), std::string::npos);
}

// Concurrent campaign: every case of a correct scheme carries a
// durable-linearizability verdict and none is a violation; the
// per-scheme report folds the verdict totals; the jittered schedule
// contributes its own cases.
TEST(FaultCampaign, ConcurrentCampaignChecksDurableLinearizability)
{
    fault::CampaignOptions opt;
    opt.apps = {"cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 2;
    opt.numSchedules = 2;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    EXPECT_TRUE(report.allPassed());
    ASSERT_GT(report.casesRun, 0u);

    bool sawIlv = false;
    std::size_t checked = 0, passes = 0;
    for (const auto &r : report.cases) {
        ASSERT_FALSE(r.dlVerdict.empty()) << r.c.label();
        EXPECT_NE(r.dlVerdict, "violation") << r.c.label();
        sawIlv |= r.c.ilvIndex != 0;
        ++checked;
        passes += r.dlVerdict == "pass";
    }
    EXPECT_TRUE(sawIlv) << "schedule 1 contributed no cases";
    EXPECT_GT(passes, 0u);

    ASSERT_EQ(report.recovery.size(), 1u);
    const auto &st = report.recovery[0];
    EXPECT_EQ(st.dlChecked, checked);
    EXPECT_EQ(st.dlPass, passes);
    EXPECT_EQ(st.dlViolation, 0u);
    EXPECT_EQ(st.dlChecked, st.dlPass + st.dlVacuous);

    std::ostringstream os;
    report.writeJson(os);
    EXPECT_NE(os.str().find("\"dl_verdict\""), std::string::npos);
    EXPECT_NE(os.str().find("\"durable_lin\""), std::string::npos);
}

// The seeded CAS-ordering bug (visible-but-never-durable CAS) must
// be caught by the checker and shrunk to a minimal repro: a single
// crash, no media faults, and jitter only when the schedule is part
// of the failure.
TEST(FaultCampaign, SeededCasBugCaughtAndShrunk)
{
    fault::CampaignOptions opt;
    opt.apps = {"cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 6;
    opt.numSchedules = 3;
    opt.seedCasBug = true;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    ASSERT_FALSE(report.allPassed())
        << "the seeded CAS bug evaded the campaign";
    bool sawViolation = false;
    for (const auto &f : report.failures) {
        if (f.dlVerdict == "violation") {
            sawViolation = true;
            // Shrunk: one crash, media faults gone.
            EXPECT_EQ(f.c.schedule.ticks.size(), 1u)
                << f.c.label();
            EXPECT_TRUE(f.c.plan.faults.empty()) << f.c.label();
        }
    }
    EXPECT_TRUE(sawViolation);
    EXPECT_GT(report.shrinkRuns, 0u);
}

/** The word-by-word comparison checkGlobals used to make. */
core::CheckResult
wordWiseCheck(const ir::Module &module,
              const interp::SparseMemory &expected,
              const interp::SparseMemory &actual)
{
    core::CheckResult result;
    for (const auto &g : module.globals()) {
        for (Addr a = g.base; a < g.base + g.sizeBytes; a += kWordBytes) {
            Word e = expected.read(a);
            Word v = actual.read(a);
            if (e != v) {
                result.consistent = false;
                ++result.totalDivergences;
                if (result.divergences.size() < 16)
                    result.divergences.push_back(
                        core::Divergence{a, e, v, g.name});
            }
        }
    }
    return result;
}

void
expectSameCheck(const core::CheckResult &want,
                const core::CheckResult &got)
{
    EXPECT_EQ(want.consistent, got.consistent);
    EXPECT_EQ(want.totalDivergences, got.totalDivergences);
    ASSERT_EQ(want.divergences.size(), got.divergences.size());
    for (std::size_t i = 0; i < want.divergences.size(); ++i) {
        EXPECT_EQ(want.divergences[i].addr, got.divergences[i].addr);
        EXPECT_EQ(want.divergences[i].expected,
                  got.divergences[i].expected);
        EXPECT_EQ(want.divergences[i].actual, got.divergences[i].actual);
        EXPECT_EQ(want.divergences[i].global, got.divergences[i].global);
    }
}

// The page-wise checker gives the word-wise loop's exact answer on
// mutated golden images: scattered flips (more than the 16 sampled),
// an untouched image, explicit zeros over never-written words (equal
// under zero-default semantics), and a whole global wiped.
TEST(ConsistencyChecker, PageWiseMatchesWordWise)
{
    for (const char *app : {"fft", "bzip2", "tpcc"}) {
        SCOPED_TRACE(app);
        auto cfg = core::makeSystemConfig("cwsp");
        auto mod = workloads::buildApp(workloads::appByName(app),
                                       cfg.compiler);
        interp::SparseMemory golden;
        interp::runToCompletion(*mod, golden, "main", {});
        const auto &globals = mod->globals();
        ASSERT_FALSE(globals.empty());

        std::vector<interp::SparseMemory> images;
        images.push_back(golden);
        images.emplace_back(); // never written: every word reads 0
        {
            interp::SparseMemory flipped = golden;
            std::uint64_t h = 0x9e3779b97f4a7c15ull;
            for (int k = 0; k < 40; ++k) {
                h ^= h >> 31;
                h *= 0xbf58476d1ce4e5b9ull;
                const auto &g = globals[h % globals.size()];
                const Addr words = (g.sizeBytes + 7) / 8;
                const Addr a = g.base + ((h >> 20) % words) * 8;
                flipped.write(a, flipped.read(a) ^ (h | 1));
            }
            images.push_back(std::move(flipped));
        }
        {
            // Written zeros where golden has nothing: no divergence.
            interp::SparseMemory zeros = golden;
            for (const auto &g : globals)
                for (Addr a = g.base; a < g.base + g.sizeBytes; a += 8)
                    if (golden.read(a) == 0)
                        zeros.write(a, 0);
            images.push_back(std::move(zeros));
        }
        {
            interp::SparseMemory wiped = golden;
            const auto &g = globals.back();
            for (Addr a = g.base; a < g.base + g.sizeBytes; a += 8)
                wiped.write(a, 0);
            images.push_back(std::move(wiped));
        }
        for (std::size_t i = 0; i < images.size(); ++i) {
            SCOPED_TRACE("image " + std::to_string(i));
            expectSameCheck(wordWiseCheck(*mod, golden, images[i]),
                            core::checkGlobals(*mod, golden, images[i]));
            expectSameCheck(wordWiseCheck(*mod, images[i], golden),
                            core::checkGlobals(*mod, images[i], golden));
        }
        EXPECT_TRUE(core::checkGlobals(*mod, golden, images[3]).consistent);
        EXPECT_GT(core::checkGlobals(*mod, golden, images[2])
                      .totalDivergences,
                  16u);
    }
}

// Replay-driven enumeration harvests the interpreted run's exact
// points under every non-battery scheme; battery-backed capri ignores
// the stream and interprets.
TEST(FaultCampaign, ReplayDrivenCrashPointsMatchInterpreted)
{
    for (const char *app : {"fft", "bzip2", "radix", "p", "tpcc"}) {
        for (const char *scheme :
             {"baseline", "cwsp", "ido", "replaycache", "psp", "capri"}) {
            SCOPED_TRACE(std::string(app) + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(workloads::appByName(app),
                                           cfg.compiler);
            auto stream = core::recordCommitStream(*mod, "main", {});
            auto want = fault::enumerateCrashPoints(
                *mod, cfg, {core::ThreadSpec{}}, 0);
            auto got = fault::enumerateCrashPoints(
                *mod, cfg, {core::ThreadSpec{}}, 0, &stream);
            EXPECT_EQ(want.runCycles, got.runCycles);
            ASSERT_EQ(want.points.size(), got.points.size());
            if (cfg.compiler.instrument)
                EXPECT_FALSE(want.points.empty());
            for (std::size_t i = 0; i < want.points.size(); ++i) {
                EXPECT_EQ(want.points[i].tick, got.points[i].tick);
                EXPECT_EQ(want.points[i].kind, got.points[i].kind);
                EXPECT_EQ(want.points[i].arg, got.points[i].arg);
            }
        }
    }
}

/** A campaign report's JSON without its checkpoint-ledger line. */
std::string
reportWithoutLedger(const fault::CampaignReport &report)
{
    std::ostringstream os;
    report.writeJson(os);
    std::istringstream in(os.str());
    std::string out, line;
    while (std::getline(in, line))
        if (line.find("\"checkpoint_cache\"") == std::string::npos)
            out += line + "\n";
    return out;
}

// Context-scoped checkpoints: every case of a forked campaign forks
// (nothing evicted, nothing falls back), and the report is the
// --no-fork report byte for byte, for any jobs count.
TEST(FaultCampaign, ForkedCampaignForksEveryCase)
{
    fault::CampaignOptions opt;
    opt.apps = {"fft", "bzip2"};
    opt.pointsPerKind = 1;
    opt.jobs = 1;
    opt.forkCheckpoints = false;
    const auto scratch = fault::runCampaign(opt);
    ASSERT_TRUE(scratch.allPassed());
    EXPECT_FALSE(scratch.ckptCache.enabled);
    const std::string want = reportWithoutLedger(scratch);

    opt.forkCheckpoints = true;
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        opt.jobs = jobs;
        const auto report = fault::runCampaign(opt);
        const auto &ck = report.ckptCache;
        EXPECT_TRUE(ck.enabled);
        EXPECT_GT(ck.captures, 0u);
        EXPECT_EQ(ck.forks, report.cases.size());
        EXPECT_EQ(ck.fallbacks, 0u);
        EXPECT_EQ(ck.evictions, 0u);
        EXPECT_EQ(ck.reasonsBrief(), "");
        EXPECT_GT(ck.bytesResident, 0u);
        EXPECT_LE(ck.entries, ck.captures);
        for (const auto &r : report.cases) {
            EXPECT_TRUE(r.forkLookup) << r.c.label();
            EXPECT_EQ(r.fork, core::ForkFallback::None) << r.c.label();
        }
        EXPECT_EQ(want, reportWithoutLedger(report));
    }

    // The ledger counts each lookup's outcome under its named reason.
    fault::CkptCacheReport ledger;
    for (auto f : {core::ForkFallback::None, core::ForkFallback::Missing,
                   core::ForkFallback::Sink, core::ForkFallback::Missing})
        ledger.note(f);
    EXPECT_EQ(ledger.forks, 1u);
    EXPECT_EQ(ledger.fallbacks, 3u);
    EXPECT_EQ(ledger.reasonsBrief(), " (missing 2, sink 1)");
}

// Failures found in a forked campaign still shrink after their
// contexts released their checkpoints: the seeded CAS bug in a
// campaign whose single-threaded contexts fork and pass, and a
// forced single-threaded failure (tampered golden memory) whose
// checkpoints are gone by the time the shrinker runs.
TEST(FaultCampaign, ShrinksAfterContextsReleased)
{
    fault::CampaignOptions opt;
    opt.apps = {"fft", "cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 6;
    opt.numSchedules = 3;
    opt.seedCasBug = true;
    opt.jobs = 2;
    auto report = fault::runCampaign(opt);
    ASSERT_FALSE(report.allPassed());
    EXPECT_GT(report.shrinkRuns, 0u);
    for (const auto &f : report.failures) {
        EXPECT_EQ(f.c.app, "cqueue") << f.c.label();
        EXPECT_EQ(f.dlVerdict, "violation") << f.c.label();
        EXPECT_EQ(f.c.schedule.ticks.size(), 1u) << f.c.label();
        EXPECT_TRUE(f.c.plan.faults.empty()) << f.c.label();
    }
    EXPECT_GT(report.ckptCache.forks, 0u);
    EXPECT_EQ(report.ckptCache.fallbacks, 0u);

    // Single-threaded: fork a failing nested + media-fault case from
    // its golden checkpoint, release the checkpoints, then shrink.
    Golden g = makeGolden("fft", "cwsp", 1);
    auto golden = core::goldenRun(*g.mod, "main", {}, 200'000'000, 0,
                                  true);
    core::WholeSystemSim capture(*g.mod, g.cfg);
    auto cr = capture.captureCheckpoints({core::ThreadSpec{}}, {g.pivot},
                                         200'000'000, &golden.stream);
    fault::CheckpointMap ckpts;
    for (auto &ck : cr.checkpoints)
        ckpts.emplace(ck->crashTick, ck);
    interp::SparseMemory tampered = golden.memory;
    const Addr victim = g.mod->globals().front().base;
    tampered.write(victim, tampered.read(victim) ^ 1);
    fault::GoldenRef ref;
    ref.module = g.mod.get();
    ref.config = &g.cfg;
    ref.result = golden.returnValue;
    ref.memory = &tampered;
    ref.ioStream = &golden.io;
    ref.stream = &golden.stream;
    ref.checkpoints = &ckpts;

    fault::CampaignCase c;
    c.app = "fft";
    c.scheme = "cwsp";
    c.schedule = fault::CrashSchedule{g.pivot, kBootCycles + 2};
    c.plan.faults.push_back(
        fault::MediaFault{fault::FaultKind::TornAppend, 0, 0, 0, 0});
    auto failing = fault::runCase(c, ref);
    ASSERT_TRUE(failing.ran);
    ASSERT_FALSE(failing.pass);
    EXPECT_TRUE(failing.forkLookup);
    EXPECT_EQ(failing.fork, core::ForkFallback::None);

    ckpts.clear(); // the context's last case finished
    std::size_t runs = 0;
    auto shrunk = fault::shrinkCase(failing, ref, 200'000'000, runs);
    EXPECT_GT(runs, 0u);
    EXPECT_FALSE(shrunk.pass);
    EXPECT_EQ(shrunk.c.schedule.ticks.size(), 1u);
    EXPECT_EQ(shrunk.c.schedule.ticks[0], g.pivot);
    EXPECT_TRUE(shrunk.c.plan.faults.empty());
    EXPECT_EQ(shrunk.fork, core::ForkFallback::Missing);
    EXPECT_NE(shrunk.detail.find("globals diverge"), std::string::npos);
}

} // namespace
} // namespace cwsp
