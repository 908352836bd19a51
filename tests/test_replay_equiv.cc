/**
 * @file
 * Replay-equivalence suite: a timed run driven from a compiled commit
 * stream (WholeSystemSim::runReplay / the runWithCrashes replay path)
 * must be bit-identical to the interpreted run it was recorded from —
 * every RunResult field, the exported statistics JSON, the trace
 * stream, and (for crash sweeps) the full CrashRunResult. The
 * one-pass recorder is itself checked against a two-pass reference
 * encoder, field by field, and the one-pass golden run against the
 * three separate functional runs it replaces.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/commit_stream.hh"
#include "core/whole_system_sim.hh"
#include "ir/parser.hh"
#include "workloads/workload.hh"

namespace cwsp {
namespace {

const std::vector<std::string> kSchemes = {
    "baseline", "cwsp", "capri", "ido", "replaycache", "psp",
};

/** Collects every trace event into a flat vector. */
class CollectSink final : public sim::TraceSink
{
  public:
    void
    onTraceEvent(const sim::TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<sim::TraceEvent> events;
};

void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.returnValues, b.returnValues);
    EXPECT_EQ(a.meanRegionInstrs, b.meanRegionInstrs);
    EXPECT_EQ(a.meanWbOccupancy, b.meanWbOccupancy);
    EXPECT_EQ(a.wpqHits, b.wpqHits);
    EXPECT_EQ(a.nvmReads, b.nvmReads);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pbFullStalls, b.pbFullStalls);
    EXPECT_EQ(a.rbtFullStalls, b.rbtFullStalls);
    EXPECT_EQ(a.wbPersistDelays, b.wbPersistDelays);
}

std::string
statsJson(core::WholeSystemSim &sim)
{
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/**
 * Every (app, scheme) pair: interpret once, replay the recorded
 * stream once, and compare results and statistics bit-for-bit. The
 * stream is recorded per pair because the compiled module depends on
 * the scheme's compiler options.
 */
TEST(ReplayEquiv, AllAppsAllSchemes)
{
    for (const auto &app : workloads::appTable()) {
        for (const auto &scheme : kSchemes) {
            SCOPED_TRACE(app.name + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(app, cfg.compiler);
            auto stream = core::recordCommitStream(*mod, "main", {});

            core::WholeSystemSim interp(*mod, cfg);
            core::RunResult ref = interp.run("main");
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            core::RunResult got = replay.runReplay(stream);
            expectSameResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/** Trace streams must match event-for-event, batching included. */
TEST(ReplayEquiv, TraceStreamsIdentical)
{
    for (const auto &scheme : kSchemes) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        CollectSink refSink;
        core::WholeSystemSim interp(*mod, cfg);
        interp.attachTraceSink(&refSink);
        interp.run("main");

        CollectSink gotSink;
        core::WholeSystemSim replay(*mod, cfg);
        replay.attachTraceSink(&gotSink);
        replay.runReplay(stream);

        ASSERT_EQ(refSink.events.size(), gotSink.events.size());
        for (std::size_t i = 0; i < refSink.events.size(); ++i)
            EXPECT_TRUE(refSink.events[i] == gotSink.events[i])
                << "event " << i << " differs";
    }
}

void
expectSameCrashResult(const core::CrashRunResult &a,
                      const core::CrashRunResult &b)
{
    expectSameResult(a.result, b.result);
    EXPECT_EQ(a.crashed, b.crashed);
    EXPECT_EQ(a.crashTick, b.crashTick);
    EXPECT_EQ(a.persistedStores, b.persistedStores);
    EXPECT_EQ(a.revertedStores, b.revertedStores);
    EXPECT_EQ(a.reexecutedInstrs, b.reexecutedInstrs);
    EXPECT_EQ(a.lostWork, b.lostWork);
    EXPECT_EQ(a.resumeRegions, b.resumeRegions);
    ASSERT_EQ(a.ioStream.size(), b.ioStream.size());
    for (std::size_t i = 0; i < a.ioStream.size(); ++i) {
        EXPECT_EQ(a.ioStream[i].device, b.ioStream[i].device);
        EXPECT_EQ(a.ioStream[i].payload, b.ioStream[i].payload);
    }
    EXPECT_EQ(a.recoveryWindows, b.recoveryWindows);
}

/**
 * Crash sweep: the replay-accelerated path must reproduce the
 * interpreted sweep exactly across the whole run length, including
 * the crash-instant state, recovery accounting, and the stats of the
 * post-recovery completion.
 */
TEST(ReplayEquiv, CrashSweepIdentical)
{
    for (const auto &scheme :
         {std::string("cwsp"), std::string("ido"),
          std::string("replaycache")}) {
        SCOPED_TRACE(scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName("fft"),
                                       cfg.compiler);
        auto stream = core::recordCommitStream(*mod, "main", {});

        core::WholeSystemSim probe(*mod, cfg);
        core::RunResult whole = probe.run("main");

        std::vector<core::ThreadSpec> threads(1);
        const Tick points[] = {whole.cycles / 7, whole.cycles / 3,
                               whole.cycles / 2,
                               (whole.cycles * 9) / 10};
        for (Tick t : points) {
            SCOPED_TRACE("crash@" + std::to_string(t));
            fault::CrashSchedule schedule{t};

            core::WholeSystemSim interp(*mod, cfg);
            auto ref = interp.runWithCrashes(threads, schedule);
            std::string refJson = statsJson(interp);

            core::WholeSystemSim replay(*mod, cfg);
            auto got = replay.runWithCrashes(threads, schedule, {},
                                             200'000'000, &stream);
            expectSameCrashResult(ref, got);
            EXPECT_EQ(refJson, statsJson(replay));
        }
    }
}

/** A stream for a different program must be ignored, not misapplied. */
TEST(ReplayEquiv, MismatchedStreamFallsBack)
{
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(workloads::appByName("fft"),
                                   cfg.compiler);
    auto other = workloads::buildApp(workloads::appByName("astar"),
                                     cfg.compiler);
    auto stream = core::recordCommitStream(*other, "main", {});

    std::vector<core::ThreadSpec> threads(1);
    core::WholeSystemSim interp(*mod, cfg);
    auto ref = interp.runWithCrashes(threads, fault::CrashSchedule{500});

    core::WholeSystemSim replay(*mod, cfg);
    auto got = replay.runWithCrashes(threads, fault::CrashSchedule{500},
                                     {}, 200'000'000, &stream);
    expectSameCrashResult(ref, got);
}

/**
 * Reference encoder: records every commit raw, then batches runs of
 * constant-cost single-commit steps in a second pass. The recorder
 * batches in one pass; both must produce the same stream.
 */
class RawRecordSink final : public interp::CommitSink
{
  public:
    RawRecordSink(core::CommitStream &stream,
                  const interp::Interpreter &interp)
        : stream_(stream), interp_(interp)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        core::CommitStream::Op op;
        op.addr = info.addr;
        op.value = info.storeValue;
        op.func = info.func;
        op.kind = static_cast<std::uint8_t>(info.kind);
        if (newStep_)
            op.flags |= core::CommitStream::kFlagNewStep;
        newStep_ = false;
        if (info.isCheckpoint)
            op.flags |= core::CommitStream::kFlagCkpt;
        if (info.kind == interp::CommitKind::Boundary) {
            op.aux = info.staticRegion;
            interp::ControlSnapshot snap = interp_.snapshot();
            stream_.snapRefs.push_back(
                {static_cast<std::uint32_t>(stream_.frames.size()),
                 static_cast<std::uint32_t>(snap.frames.size())});
            stream_.frames.insert(stream_.frames.end(),
                                  snap.frames.begin(),
                                  snap.frames.end());
        }
        stream_.ops.push_back(op);
        ++stream_.commits;
    }

    void markNewStep() { newStep_ = true; }

  private:
    core::CommitStream &stream_;
    const interp::Interpreter &interp_;
    bool newStep_ = false;
};

core::CommitStream
twoPassStream(const ir::Module &module)
{
    using Op = core::CommitStream::Op;
    core::CommitStream raw;
    interp::SparseMemory memory;
    interp::Interpreter interp(module, memory, 0);
    RawRecordSink sink(raw, interp);
    interp.start("main", {}, sink);
    while (!interp.finished()) {
        sink.markNewStep();
        interp.step(sink);
        ++raw.steps;
    }
    raw.returnValue = interp.returnValue();

    core::CommitStream out = raw;
    out.ops.clear();
    for (std::size_t i = 0; i < raw.ops.size(); ++i) {
        const Op &op = raw.ops[i];
        const bool single =
            i + 1 == raw.ops.size() ||
            (raw.ops[i + 1].flags & core::CommitStream::kFlagNewStep);
        const auto k = static_cast<interp::CommitKind>(op.kind);
        std::uint8_t bk = 0;
        if (op.flags & core::CommitStream::kFlagNewStep) {
            if (k == interp::CommitKind::Alu ||
                k == interp::CommitKind::Branch)
                bk = core::CommitStream::kBatch1;
            else if (k == interp::CommitKind::CallRet && single)
                bk = core::CommitStream::kBatch2;
        }
        if (bk == 0) {
            out.ops.push_back(op);
        } else if (!out.ops.empty() && out.ops.back().kind == bk) {
            ++out.ops.back().aux;
        } else {
            Op b;
            b.kind = bk;
            b.flags = core::CommitStream::kFlagNewStep;
            b.aux = 1;
            out.ops.push_back(b);
        }
    }
    return out;
}

bool
sameOp(const core::CommitStream::Op &a, const core::CommitStream::Op &b)
{
    return a.addr == b.addr && a.value == b.value && a.func == b.func &&
           a.aux == b.aux && a.kind == b.kind && a.flags == b.flags;
}

bool
sameFrame(const interp::Frame &a, const interp::Frame &b)
{
    return a.regs == b.regs && a.func == b.func && a.block == b.block &&
           a.index == b.index && a.returnDst == b.returnDst;
}

/** Field-by-field equality; reports the first differing element. */
void
expectSameStream(const core::CommitStream &want,
                 const core::CommitStream &got)
{
    EXPECT_EQ(want.steps, got.steps);
    EXPECT_EQ(want.commits, got.commits);
    EXPECT_EQ(want.returnValue, got.returnValue);
    ASSERT_EQ(want.ops.size(), got.ops.size());
    for (std::size_t i = 0; i < want.ops.size(); ++i)
        ASSERT_TRUE(sameOp(want.ops[i], got.ops[i])) << "op " << i;
    ASSERT_EQ(want.frames.size(), got.frames.size());
    for (std::size_t i = 0; i < want.frames.size(); ++i)
        ASSERT_TRUE(sameFrame(want.frames[i], got.frames[i]))
            << "frame " << i;
    ASSERT_EQ(want.snapRefs.size(), got.snapRefs.size());
    for (std::size_t i = 0; i < want.snapRefs.size(); ++i) {
        EXPECT_EQ(want.snapRefs[i].begin, got.snapRefs[i].begin);
        EXPECT_EQ(want.snapRefs[i].count, got.snapRefs[i].count);
    }
}

/** The one-pass recorder matches the two-pass reference encoder. */
TEST(RecorderOracle, MatchesTwoPassEncoder)
{
    std::vector<std::pair<std::string, std::string>> cases;
    for (const auto &app : workloads::appTable())
        cases.emplace_back(app.name, "cwsp");
    for (const char *app : {"fft", "bzip2", "tpcc", "p"})
        cases.emplace_back(app, "baseline");
    for (const auto &[app, scheme] : cases) {
        SCOPED_TRACE(app + "/" + scheme);
        auto cfg = core::makeSystemConfig(scheme);
        auto mod = workloads::buildApp(workloads::appByName(app),
                                       cfg.compiler);
        expectSameStream(twoPassStream(*mod),
                         core::recordCommitStream(*mod, "main", {}));
    }
}

/**
 * Hand-built edge cases: adjacent kBatch1/kBatch2 runs, a bare Call
 * (batches), a Call with argument spills (does not), and a trailing
 * bare Ret that ends the stream.
 */
TEST(RecorderOracle, HandBuiltBatchingEdges)
{
    auto mod = ir::parseModule(R"(
func noargs(0 params)
bb0:
  movi r1, 3
  ret r1
func twoargs(2 params)
bb0:
  add r2, r0, r1
  ret r2
func main(0 params)
bb0:
  movi r1, 1
  movi r2, 2
  call r3, f0()
  call r4, f1(r1, r2)
  st r4, [r31+8]
  ret r4
)");
    auto got = core::recordCommitStream(*mod, "main", {});
    expectSameStream(twoPassStream(*mod), got);

    using S = core::CommitStream;
    const auto callRet =
        static_cast<std::uint8_t>(interp::CommitKind::CallRet);
    const auto store = static_cast<std::uint8_t>(interp::CommitKind::Store);
    // (kind, aux, flags) per op.
    const std::vector<std::tuple<std::uint8_t, std::uint32_t,
                                 std::uint8_t>>
        want = {
            {S::kBatch1, 2, S::kFlagNewStep}, // movi, movi
            {S::kBatch2, 1, S::kFlagNewStep}, // call f0()
            {S::kBatch1, 1, S::kFlagNewStep}, // movi in noargs
            {S::kBatch2, 1, S::kFlagNewStep}, // ret to main
            {callRet, 0, S::kFlagNewStep},    // call f1 (spills)
            {store, 0, S::kFlagCkpt},         // spill r1
            {store, 0, S::kFlagCkpt},         // spill r2
            {S::kBatch1, 1, S::kFlagNewStep}, // add
            {S::kBatch2, 1, S::kFlagNewStep}, // ret to main
            {store, 0, S::kFlagNewStep},      // st
            {S::kBatch2, 1, S::kFlagNewStep}, // trailing ret
        };
    ASSERT_EQ(got.ops.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("op " + std::to_string(i));
        EXPECT_EQ(got.ops[i].kind, std::get<0>(want[i]));
        EXPECT_EQ(got.ops[i].aux, std::get<1>(want[i]));
        EXPECT_EQ(got.ops[i].flags, std::get<2>(want[i]));
    }
    EXPECT_EQ(got.steps, 10u);
    EXPECT_EQ(got.commits, 12u);
    EXPECT_EQ(got.returnValue, 3u);
}

/**
 * One functional golden pass yields exactly what the three separate
 * runs did: runToCompletion's memory and return value,
 * collectIoStream's device output, and recordCommitStream's stream.
 */
TEST(GoldenRunOracle, MatchesThreeSeparateRuns)
{
    for (const auto &app : workloads::appTable()) {
        for (const char *scheme : {"cwsp", "baseline"}) {
            SCOPED_TRACE(app.name + "/" + scheme);
            auto cfg = core::makeSystemConfig(scheme);
            auto mod = workloads::buildApp(app, cfg.compiler);
            const auto hint = workloads::estimatedInstrs(app);
            auto g = core::goldenRun(*mod, "main", {}, 200'000'000,
                                     hint, true);

            interp::SparseMemory mem;
            EXPECT_EQ(g.returnValue, interp::runToCompletion(
                                         *mod, mem, "main", {}));
            EXPECT_TRUE(g.memory.equals(mem));
            EXPECT_EQ(g.memory.footprintWords(), mem.footprintWords());

            auto io = core::collectIoStream(*mod, "main", {});
            ASSERT_EQ(g.io.size(), io.size());
            for (std::size_t i = 0; i < io.size(); ++i) {
                EXPECT_EQ(g.io[i].device, io[i].device) << "io " << i;
                EXPECT_EQ(g.io[i].payload, io[i].payload) << "io " << i;
                EXPECT_EQ(g.io[i].region, io[i].region) << "io " << i;
                EXPECT_EQ(g.io[i].core, io[i].core) << "io " << i;
            }

            auto want = core::recordCommitStream(*mod, "main", {},
                                                 200'000'000, hint);
            EXPECT_TRUE(g.stream.matches(*mod, "main", {}));
            expectSameStream(want, g.stream);

            // Without recording: the same memory, result and output,
            // and no stream.
            auto bare = core::goldenRun(*mod, "main", {}, 200'000'000,
                                        hint, false);
            EXPECT_EQ(bare.returnValue, g.returnValue);
            EXPECT_TRUE(bare.memory.equals(g.memory));
            EXPECT_EQ(bare.io.size(), g.io.size());
            EXPECT_EQ(bare.stream.module, nullptr);
            EXPECT_TRUE(bare.stream.ops.empty());
        }
    }
}

} // namespace
} // namespace cwsp
