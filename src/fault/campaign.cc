#include "fault/campaign.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <thread>

#include "core/consistency_checker.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "core/interleave.hh"
#include "driver/batch_runner.hh"
#include "interp/interpreter.hh"
#include "obs/durable_lin.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cwsp::fault {

namespace {

using core::recovery_timing::kBootCycles;

static_assert(kRecoveryPhases == core::kNumRecoveryPhases,
              "campaign phase accounting mirrors core::RecoveryPhase");

/** JSON keys of the per-phase cycle totals, RecoveryPhase order. */
constexpr const char *kPhaseJsonKeys[kRecoveryPhases] = {
    "detect", "scan", "undo_replay", "slice_reexec", "resume"};

/**
 * Schemes with NVM undo-log media a fault can target. Battery-backed
 * Capri keeps no log (its redo buffer flushes on failure), and
 * baseline/psp record nothing, so torn/bit-flip/stale-slot cases
 * would be vacuous there.
 */
bool
schemeHasLogMedia(const std::string &scheme)
{
    return scheme == "cwsp" || scheme == "ido" ||
           scheme == "replaycache";
}

std::string
faultBrief(const MediaFault &f)
{
    std::ostringstream os;
    os << faultKindName(f.kind) << "@" << f.crashIndex;
    return os.str();
}

void
writeFaultStatsJson(json::Writer &w, const FaultStats &s)
{
    w.beginObject(json::kSpaced);
    w.field("crashes_injected", s.crashesInjected);
    w.field("nested_crashes", s.nestedCrashes);
    w.field("recovery_crashes", s.recoveryCrashes);
    w.field("undo_replay_passes", s.undoReplayPasses);
    w.field("partial_replay_records", s.partialReplayRecords);
    w.field("faults_requested", s.faultsRequested);
    w.field("faults_applied", s.faultsApplied);
    w.field("corrupt_records_detected", s.corruptRecordsDetected);
    w.field("torn_tails_dropped", s.tornTailsDropped);
    w.field("region_restarts", s.regionRestarts);
    w.field("full_restarts", s.fullRestarts);
    w.field("stale_slots_detected", s.staleSlotsDetected);
    w.field("atomic_resumes", s.atomicResumes).end();
}

/** {"detect": .., "scan": .., ...} in core::RecoveryPhase order. */
void
writePhasesJson(json::Writer &w,
                const std::uint64_t (&cycles)[kRecoveryPhases])
{
    w.beginObject(json::kSpaced);
    for (std::size_t p = 0; p < kRecoveryPhases; ++p)
        w.field(kPhaseJsonKeys[p], cycles[p]);
    w.end();
}

/** [a, b, ...] of unsigned counts, spaced. */
template <typename Range>
void
writeCountsJson(json::Writer &w, const Range &counts)
{
    w.beginArray(json::kSpaced);
    for (std::uint64_t v : counts)
        w.value(v);
    w.end();
}

void
writeCaseJson(json::Writer &w, const CaseResult &r)
{
    w.beginObject(json::kSpaced);
    w.field("app", r.c.app).field("scheme", r.c.scheme);
    w.field("schedule", r.c.schedule.describe());
    w.field("point_kind", crashPointKindName(r.c.pointKind));
    w.field("ilv", r.c.ilvIndex);
    if (!r.dlVerdict.empty()) {
        w.field("dl_verdict", r.dlVerdict);
        w.field("dl_invoked", r.dlInvokedOps);
        w.field("dl_completed", r.dlCompletedOps);
    }
    w.key("faults").beginArray(json::kSpaced);
    for (const MediaFault &f : r.c.plan.faults)
        w.value(faultBrief(f));
    w.end().field("pass", r.pass).field("ran", r.ran);
    w.field("crashed", r.crashed).field("consistent", r.consistent);
    w.field("result_match", r.resultMatch);
    w.field("io_checked", r.ioChecked).field("io_match", r.ioMatch);
    w.field("faults_detected", r.faultsDetected);
    w.field("divergences", r.divergences);
    w.field("lost_work", r.lostWork).key("recovery_windows");
    writeCountsJson(w, r.recoveryWindows);
    w.key("recovery_phases");
    writePhasesJson(w, r.recoveryPhaseCycles);
    w.key("stats");
    writeFaultStatsJson(w, r.faults);
    if (!r.detail.empty())
        w.field("detail", r.detail);
    w.end();
}

void
writeHistogramJson(json::Writer &w, const RecoveryHistogram &h)
{
    w.beginObject(json::kSpaced).field("samples", h.samples);
    w.field("min", h.min).field("max", h.max).field("total", h.total);
    w.field("mean", h.mean()).field("bucket_width", h.bucketWidth);
    // Trim trailing empty buckets: the width is fixed, so readers
    // rebuild the tail as zeros.
    std::size_t last = h.counts.size();
    while (last > 0 && h.counts[last - 1] == 0)
        --last;
    w.key("counts");
    writeCountsJson(w, std::span(h.counts.data(), last));
    w.end();
}

void
writeSchemeRecoveryJson(json::Writer &w,
                        const SchemeRecoveryStats &st)
{
    w.beginObject(json::kSpaced).field("name", st.scheme);
    w.field("crashes", st.crashes).key("latency");
    writeHistogramJson(w, st.latency);
    w.key("lost_work");
    writeHistogramJson(w, st.lostWork);
    w.key("phases");
    writePhasesJson(w, st.phaseCycles);
    w.field("runtime_overhead", st.runtimeOverhead);
    w.key("durable_lin").beginObject(json::kSpaced);
    w.field("checked", st.dlChecked).field("pass", st.dlPass);
    w.field("violation", st.dlViolation);
    w.field("vacuous", st.dlVacuous).end();
    w.key("golden_cycles").beginArray(json::kSpaced);
    for (const auto &[app, cycles] : st.goldenCycles) {
        w.beginObject(json::kSpaced).field("name", app);
        w.field("cycles", cycles).end();
    }
    w.end().end();
}

/** Per-(app, scheme) golden context shared read-only by its cases. */
struct Context
{
    std::string app;
    std::string scheme;
    core::SystemConfig config;
    std::shared_ptr<const ir::Module> module;
    Word goldenResult = 0;
    interp::SparseMemory goldenMemory;
    std::vector<arch::IoRecord> goldenIo;
    /** Fault-free timed cycles (overhead axis of the Pareto report). */
    Tick goldenCycles = 0;
    /** Compiled commit stream replayed by this context's cases. */
    core::CommitStream stream;
    bool hasStream = false;
    CrashPointSet points;
    /**
     * Forked mode: the golden pass's checkpoints, one per distinct
     * first crash tick of this context's cases. Released, with the
     * stream, when the context's last case finishes; the shrinker
     * then runs from scratch.
     */
    bool forked = false;
    CheckpointMap checkpoints;
    std::size_t checkpointBytes = 0;
    /** This context's cases in deterministic order, then results. */
    std::vector<CaseResult> results;
    std::size_t casesLeft = 0;
    /**
     * Concurrent contexts (one per interleaving schedule): thread
     * roster, structure spec, and per-worker op sequences for the
     * durable-linearizability verdict. Checkpoint forking and stream
     * replay stay off — both are single-core machineries.
     */
    bool concurrent = false;
    std::uint32_t ilvIndex = 0;
    std::vector<core::ThreadSpec> threads{core::ThreadSpec{}};
    workloads::ConcurrentSpec cspec;
    std::vector<std::vector<workloads::ConcurrentOp>> cops;
};

GoldenRef
refOf(const Context &ctx)
{
    GoldenRef g;
    g.module = ctx.module.get();
    g.config = &ctx.config;
    g.result = ctx.goldenResult;
    g.memory = &ctx.goldenMemory;
    g.ioStream = &ctx.goldenIo;
    g.stream = ctx.hasStream ? &ctx.stream : nullptr;
    g.checkpoints = ctx.forked ? &ctx.checkpoints : nullptr;
    g.threads = &ctx.threads;
    if (ctx.concurrent) {
        g.dlSpec = &ctx.cspec;
        g.dlOps = &ctx.cops;
    }
    return g;
}

/**
 * Build this context's case list. Deterministic: depends only on the
 * enumerated points and the options.
 */
std::vector<CampaignCase>
casesFor(const Context &ctx, const CampaignOptions &opt)
{
    std::vector<CampaignCase> cases;
    const auto &pts = ctx.points.points;
    if (pts.empty())
        return cases;

    auto base = [&](const CrashPoint &p) {
        CampaignCase c;
        c.app = ctx.app;
        c.scheme = ctx.scheme;
        c.pointKind = p.kind;
        c.ilvIndex = ctx.ilvIndex;
        c.interleave = ctx.config.scheme.interleave;
        return c;
    };

    for (const auto &p : pts) {
        CampaignCase c = base(p);
        c.schedule = CrashSchedule{p.tick};
        cases.push_back(std::move(c));
    }

    // Pivot for nested/media cases: a mid-run point, preferring an
    // undo-append edge (live log records guaranteed at the crash).
    CrashPoint pivot = pts[pts.size() / 2];
    for (const auto &p : pts)
        if (p.kind == CrashPointKind::UndoAppend)
            pivot = p;

    if (opt.nested) {
        // Mid-boot: the second failure lands before log scan ends.
        CampaignCase c1 = base(pivot);
        c1.pointKind = CrashPointKind::MidRecovery;
        c1.schedule = CrashSchedule{pivot.tick, 1};
        cases.push_back(std::move(c1));
        // Mid-replay: just past boot, inside undo-record replay
        // whenever the first crash left live records.
        CampaignCase c2 = base(pivot);
        c2.pointKind = CrashPointKind::MidRecovery;
        c2.schedule = CrashSchedule{pivot.tick, kBootCycles + 2};
        cases.push_back(std::move(c2));
        // Post-recovery: a second failure during re-execution.
        CampaignCase c3 = base(pivot);
        c3.schedule = CrashSchedule{pivot.tick, 4096};
        cases.push_back(std::move(c3));
    }

    if (opt.mediaFaults && schemeHasLogMedia(ctx.scheme)) {
        CampaignCase torn = base(pivot);
        torn.schedule = CrashSchedule{pivot.tick};
        torn.plan.faults.push_back(
            MediaFault{FaultKind::TornAppend, 0, 0, 0, 0});
        cases.push_back(std::move(torn));

        CampaignCase flip = base(pivot);
        flip.schedule = CrashSchedule{pivot.tick};
        flip.plan.faults.push_back(
            MediaFault{FaultKind::BitFlip, 0, 0, 0, 17});
        cases.push_back(std::move(flip));

        CampaignCase stale = base(pivot);
        stale.schedule = CrashSchedule{pivot.tick};
        stale.plan.faults.push_back(
            MediaFault{FaultKind::StaleCheckpointSlot, 0, 0, 0, 0});
        cases.push_back(std::move(stale));

        // Torn append *and* a nested mid-replay failure: the hardened
        // scan must hold up across a recovery re-entry.
        CampaignCase both = base(pivot);
        both.pointKind = CrashPointKind::MidRecovery;
        both.schedule = CrashSchedule{pivot.tick, kBootCycles + 2};
        both.plan.faults.push_back(
            MediaFault{FaultKind::TornAppend, 0, 0, 0, 0});
        cases.push_back(std::move(both));
    }
    return cases;
}

} // namespace

void
RecoveryHistogram::add(std::uint64_t v)
{
    if (counts.empty())
        counts.assign(kRecoveryHistBuckets, 0);
    std::size_t b = static_cast<std::size_t>(
        v / (bucketWidth ? bucketWidth : 1));
    if (b >= counts.size())
        b = counts.size() - 1; // overflow bucket
    ++counts[b];
    if (samples == 0 || v < min)
        min = v;
    if (v > max)
        max = v;
    total += v;
    ++samples;
}

void
CkptCacheReport::note(core::ForkFallback f)
{
    if (f == core::ForkFallback::None) {
        ++forks;
        return;
    }
    ++fallbacks;
    ++fallbackReasons[static_cast<std::size_t>(f)];
}

std::string
CkptCacheReport::reasonsBrief() const
{
    std::string out;
    for (std::size_t f = 1; f < core::kNumForkFallbacks; ++f) {
        if (fallbackReasons[f] == 0)
            continue;
        out += (out.empty() ? " (" : ", ");
        out += core::forkFallbackName(static_cast<core::ForkFallback>(f));
        out += " " + std::to_string(fallbackReasons[f]);
    }
    return out.empty() ? out : out + ")";
}

const std::vector<std::string> &
allSchemeNames()
{
    return core::schemeNames();
}

std::string
CampaignCase::label() const
{
    std::ostringstream os;
    os << app << "/" << scheme << " @" << schedule.describe();
    if (ilvIndex != 0)
        os << " ilv" << ilvIndex;
    for (const auto &f : plan.faults)
        os << " " << faultBrief(f);
    return os.str();
}

CaseResult
runCase(const CampaignCase &c, const GoldenRef &golden,
        std::uint64_t max_instrs)
{
    cwsp_assert(golden.module && golden.config && golden.memory &&
                    golden.ioStream,
                "runCase needs a complete golden reference");
    CaseResult r;
    r.c = c;
    try {
        // The case carries its own interleave config (the shrinker
        // may have zeroed it); everything else follows the golden
        // context's config exactly.
        core::SystemConfig cfg = *golden.config;
        cfg.scheme.interleave = c.interleave;
        core::WholeSystemSim sim(*golden.module, cfg);
        static const std::vector<core::ThreadSpec> kMainThread{
            core::ThreadSpec{}};
        const auto &threads =
            golden.threads ? *golden.threads : kMainThread;
        if (golden.dlSpec)
            sim.setCaptureFirstCrash(true);
        // Forked mode: restore the pre-crash prefix from the golden
        // pass's checkpoint instead of re-executing it. A miss (never
        // captured, or released with its context) or a checkpoint
        // the sim rejects degrades to from-scratch execution —
        // identical verdict, more cycles — and out.fork says why.
        const core::SimCheckpoint *fork = nullptr;
        const bool lookup = golden.checkpoints && !c.schedule.empty();
        if (lookup) {
            auto it = golden.checkpoints->find(c.schedule.ticks[0]);
            if (it != golden.checkpoints->end())
                fork = it->second.get();
        }
        auto out = sim.runWithCrashes(threads, c.schedule, c.plan,
                                      max_instrs, golden.stream, fork);
        r.forkLookup = lookup;
        r.fork = out.fork;
        r.ran = true;
        r.crashed = out.crashed;
        r.faults = out.faults;
        r.lostWork = out.lostWork;
        r.recoveryWindows.assign(out.recoveryWindows.begin(),
                                 out.recoveryWindows.end());
        for (const auto &b : out.recoveryBreakdowns) {
            for (std::size_t p = 0; p < kRecoveryPhases; ++p)
                r.recoveryPhaseCycles[p] += b.phase[p];
        }

        // Every media fault that was actually injected must have been
        // detected somewhere (silent corruption fails the case even
        // when the state happens to converge).
        r.faultsDetected =
            out.faults.faultsApplied == 0 ||
            out.faults.corruptRecordsDetected +
                    out.faults.staleSlotsDetected >=
                out.faults.faultsApplied;

        if (golden.dlSpec) {
            // Concurrent verdict: the crash may legally change which
            // worker wins each post-recovery race, so the golden
            // final state is not a reference — durable
            // linearizability of the pre-crash history against the
            // recovered image is.
            obs::DlResult dl;
            if (out.hasFirstCrash) {
                dl = obs::checkDurableLinearizability(
                    *golden.dlSpec, *golden.dlOps, out.firstStores,
                    out.firstDurableImage, out.firstFullRestart);
            } else {
                dl.outcome = obs::DlOutcome::Vacuous;
                dl.reason = "program finished before the crash";
            }
            r.dlVerdict = obs::dlOutcomeName(dl.outcome);
            r.dlInvokedOps = dl.invokedOps;
            r.dlCompletedOps = dl.completedOps;
            r.consistent = true; // differential check not applicable
            r.resultMatch = true;
            for (std::uint32_t t = 0;
                 t < out.result.returnValues.size(); ++t) {
                r.resultMatch &=
                    out.result.returnValues[t] == golden.result;
            }
            r.pass = r.resultMatch && r.faultsDetected &&
                     dl.outcome != obs::DlOutcome::Violation;
            if (!r.pass) {
                std::ostringstream os;
                if (dl.outcome == obs::DlOutcome::Violation)
                    os << "durable linearizability: " << dl.reason
                       << "; ";
                if (!r.resultMatch)
                    os << "post-recovery worker result differs; ";
                if (!r.faultsDetected)
                    os << "seeded media fault went undetected; ";
                r.detail = os.str();
            }
            return r;
        }

        auto check = core::checkGlobals(*golden.module,
                                        *golden.memory, sim.memory());
        r.consistent = check.consistent;
        r.divergences = check.totalDivergences;
        r.resultMatch = !out.result.returnValues.empty() &&
                        out.result.returnValues[0] == golden.result;

        // Exactly-once device output — except across a full restart,
        // where re-execution from entry necessarily re-issues output
        // (the documented cost of degradation step 3).
        if (out.faults.fullRestarts == 0) {
            r.ioChecked = true;
            r.ioMatch =
                out.ioStream.size() == golden.ioStream->size();
            for (std::size_t i = 0; r.ioMatch &&
                                    i < out.ioStream.size();
                 ++i) {
                const auto &a = out.ioStream[i];
                const auto &b = (*golden.ioStream)[i];
                r.ioMatch = a.device == b.device &&
                            a.payload == b.payload &&
                            a.core == b.core;
            }
        }

        r.pass = r.consistent && r.resultMatch &&
                 (!r.ioChecked || r.ioMatch) && r.faultsDetected;
        if (!r.pass) {
            std::ostringstream os;
            if (!r.consistent)
                os << "globals diverge (" << r.divergences
                   << " words, first in "
                   << (check.divergences.empty()
                           ? std::string("?")
                           : check.divergences[0].global)
                   << "); ";
            if (!r.resultMatch)
                os << "return value differs; ";
            if (r.ioChecked && !r.ioMatch)
                os << "device output not exactly-once; ";
            if (!r.faultsDetected)
                os << "seeded media fault went undetected; ";
            r.detail = os.str();
        }
    } catch (const std::exception &e) {
        r.ran = false;
        r.pass = false;
        r.detail = std::string("exception: ") + e.what();
    }
    return r;
}

CaseResult
shrinkCase(const CaseResult &failing, const GoldenRef &golden,
           std::uint64_t max_instrs, std::size_t &runs)
{
    CaseResult best = failing;
    bool improved = true;
    while (improved && runs < 32) {
        improved = false;
        std::vector<CampaignCase> candidates;
        if (best.c.schedule.size() > 1) {
            CampaignCase c = best.c;
            c.schedule.ticks.pop_back();
            candidates.push_back(std::move(c));
        }
        if (best.c.interleave.seed != 0) {
            // Is the interleaving schedule part of the minimal
            // repro, or does the failure reproduce under the
            // unjittered legacy timing too?
            CampaignCase c = best.c;
            c.ilvIndex = 0;
            c.interleave = arch::InterleaveConfig{};
            candidates.push_back(std::move(c));
        }
        for (std::size_t i = 0; i < best.c.plan.faults.size(); ++i) {
            CampaignCase c = best.c;
            c.plan.faults.erase(c.plan.faults.begin() +
                                static_cast<std::ptrdiff_t>(i));
            candidates.push_back(std::move(c));
        }
        for (const auto &cand : candidates) {
            ++runs;
            CaseResult r = runCase(cand, golden, max_instrs);
            if (!r.pass) {
                best = std::move(r);
                improved = true;
                break;
            }
            if (runs >= 32)
                break;
        }
    }
    return best;
}

namespace {

/**
 * Golden pass of one context: compile, one functional run (final
 * memory, return value, device output and — for replayable schemes —
 * the commit stream), replay-driven crash-point enumeration, then the
 * fault-free timed run, which in forked mode also captures a
 * checkpoint at every first crash tick the context's cases will use
 * (nested/media cases all pivot on an enumerated point, so the point
 * ticks cover them). Self-contained: touches only @p ctx.
 */
void
prepareContext(Context &ctx, const CampaignOptions &options)
{
    ctx.config = core::makeSystemConfig(ctx.scheme);
    if (ctx.concurrent) {
        // Multicore golden run: fault-free timing plus the reference
        // worker return value (each worker deterministically finishes
        // opsPerWorker ops). Commit-stream replay and checkpoint
        // forking are single-core machineries and stay off; the
        // durable-lin verdict replaces the differential checks.
        const auto *cp = workloads::findConcurrentApp(ctx.app);
        ctx.config.numCores = cp->params.numWorkers;
        ctx.config.scheme.interleave = core::interleaveSchedule(
            options.interleaveSeed, ctx.ilvIndex);
        ctx.config.scheme.bugCasSkipPersist = options.seedCasBug;
        ctx.module =
            workloads::buildConcurrentApp(*cp, ctx.config.compiler);
        ctx.cspec = workloads::concurrentSpec(*ctx.module, *cp);
        ctx.threads.clear();
        for (std::uint32_t t = 0; t < cp->params.numWorkers; ++t) {
            ctx.cops.push_back(workloads::concurrentOps(*cp, t));
            ctx.threads.push_back(core::ThreadSpec{"worker", {Word{t}}});
        }
        core::WholeSystemSim sim(*ctx.module, ctx.config);
        ctx.goldenCycles = sim.run(ctx.threads, options.maxInstrs).cycles;
        ctx.goldenResult = cp->params.opsPerWorker;
        ctx.points = enumerateCrashPoints(*ctx.module, ctx.config,
                                          ctx.threads,
                                          options.pointsPerKind);
        return;
    }
    const auto &profile = workloads::appByName(ctx.app);
    ctx.module = workloads::buildApp(profile, ctx.config.compiler);
    // Battery-backed schemes never replay (they need a live snapshot
    // at the crash instant), so their golden run records no stream.
    core::GoldenRun golden = core::goldenRun(
        *ctx.module, "main", {}, options.maxInstrs,
        workloads::estimatedInstrs(profile),
        !ctx.config.scheme.batteryBacked);
    ctx.goldenResult = golden.returnValue;
    ctx.goldenMemory = std::move(golden.memory);
    ctx.goldenIo = std::move(golden.io);
    ctx.hasStream = golden.stream.module != nullptr;
    ctx.stream = std::move(golden.stream);
    const core::CommitStream *stream = ctx.hasStream ? &ctx.stream : nullptr;
    ctx.points = enumerateCrashPoints(*ctx.module, ctx.config,
                                      {core::ThreadSpec{}},
                                      options.pointsPerKind, stream);

    core::WholeSystemSim sim(*ctx.module, ctx.config);
    if (!options.forkCheckpoints || ctx.points.points.empty()) {
        // Stream-driven when available: a fraction of an interpreted
        // run.
        ctx.goldenCycles =
            stream ? sim.runReplay(*stream, options.maxInstrs).cycles
                   : sim.run("main", {}, options.maxInstrs).cycles;
        return;
    }
    std::vector<Tick> ticks;
    for (const auto &p : ctx.points.points)
        ticks.push_back(p.tick);
    std::sort(ticks.begin(), ticks.end());
    ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
    auto cr = sim.captureCheckpoints({core::ThreadSpec{}}, ticks,
                                     options.maxInstrs, stream);
    ctx.goldenCycles = cr.result.cycles;
    for (auto &ck : cr.checkpoints) {
        ctx.checkpointBytes += ck->bytes();
        ctx.checkpoints.emplace(ck->crashTick, std::move(ck));
    }
    ctx.forked = true;
}

} // namespace

CampaignReport
runCampaign(const CampaignOptions &options)
{
    cwsp_assert(!options.apps.empty(),
                "fault campaign needs at least one app");
    const std::vector<std::string> &schemes =
        options.schemes.empty() ? allSchemeNames() : options.schemes;

    // One context per (app, scheme) slot — concurrent apps get one
    // slot per interleaving schedule.
    std::vector<Context> contexts;
    for (const auto &app : options.apps) {
        const bool conc = workloads::findConcurrentApp(app) != nullptr;
        const std::uint32_t slots =
            conc ? std::max<std::uint32_t>(1, options.numSchedules) : 1;
        for (const auto &scheme : schemes) {
            for (std::uint32_t k = 0; k < slots; ++k) {
                Context ctx;
                ctx.app = app;
                ctx.scheme = scheme;
                ctx.concurrent = conc;
                ctx.ilvIndex = k;
                contexts.push_back(std::move(ctx));
            }
        }
    }

    // One worker loop over golden passes and cases. A worker runs a
    // ready case when there is one and prepares the next context only
    // when there is none, so about `jobs` contexts are live at once:
    // each context's checkpoints and stream are captured shortly
    // before its cases fork from them and released right after its
    // last case. Results land in their context's slot, so the report
    // is independent of the jobs count.
    CkptCacheReport ledger;
    ledger.enabled = options.forkCheckpoints;
    {
        std::mutex mu;
        std::condition_variable wake;
        std::size_t nextPrep = 0;
        std::size_t preparing = 0;
        std::deque<std::pair<Context *, std::size_t>> ready;
        std::size_t liveBytes = 0, liveCkpts = 0;
        std::exception_ptr error;

        auto worker = [&]() {
            std::unique_lock<std::mutex> lk(mu);
            while (true) {
                wake.wait(lk, [&] {
                    return !ready.empty() ||
                           nextPrep < contexts.size() || preparing == 0;
                });
                Context *done = nullptr; // every case of it finished
                if (!ready.empty()) {
                    auto [ctx, i] = ready.front();
                    ready.pop_front();
                    lk.unlock();
                    CaseResult &r = ctx->results[i];
                    r = runCase(r.c, refOf(*ctx), options.maxInstrs);
                    lk.lock();
                    if (--ctx->casesLeft == 0)
                        done = ctx;
                } else if (nextPrep < contexts.size()) {
                    Context &ctx = contexts[nextPrep++];
                    ++preparing;
                    lk.unlock();
                    std::exception_ptr failed;
                    try {
                        prepareContext(ctx, options);
                        for (auto &c : casesFor(ctx, options)) {
                            ctx.results.emplace_back();
                            ctx.results.back().c = std::move(c);
                        }
                    } catch (...) {
                        ctx.results.clear();
                        failed = std::current_exception();
                    }
                    lk.lock();
                    --preparing;
                    if (failed && !error)
                        error = failed;
                    ledger.captures += ctx.checkpoints.size();
                    liveBytes += ctx.checkpointBytes;
                    liveCkpts += ctx.checkpoints.size();
                    ledger.bytesResident =
                        std::max<std::uint64_t>(ledger.bytesResident,
                                                liveBytes);
                    ledger.entries =
                        std::max<std::uint64_t>(ledger.entries, liveCkpts);
                    ctx.casesLeft = ctx.results.size();
                    for (std::size_t i = 0; i < ctx.results.size(); ++i)
                        ready.emplace_back(&ctx, i);
                    if (ctx.results.empty())
                        done = &ctx;
                    wake.notify_all();
                } else {
                    return; // nothing ready, queued or in preparation
                }
                if (done) {
                    // No worker reads done's checkpoints or stream any
                    // more; free them outside the lock.
                    liveBytes -= done->checkpointBytes;
                    liveCkpts -= done->checkpoints.size();
                    lk.unlock();
                    done->checkpoints.clear();
                    done->stream = core::CommitStream{};
                    done->hasStream = false;
                    lk.lock();
                }
            }
        };
        const std::size_t jobs =
            options.jobs != 0
                ? options.jobs
                : std::max(1u, std::thread::hardware_concurrency());
        driver::BatchConfig bc;
        bc.jobs = static_cast<unsigned>(jobs);
        bc.useDiskCache = false;
        driver::BatchRunner pool(bc);
        pool.runTasks(std::vector<std::function<void()>>(jobs, worker));
        if (error)
            std::rethrow_exception(error);
    }

    CampaignReport report;
    std::vector<const Context *> caseCtx;
    for (Context &ctx : contexts) {
        for (CaseResult &r : ctx.results) {
            if (r.forkLookup)
                ledger.note(r.fork);
            report.cases.push_back(std::move(r));
            caseCtx.push_back(&ctx);
        }
        ctx.results.clear();
    }
    if (ledger.enabled)
        report.ckptCache = ledger;

    // Phase 3: aggregate; auto-shrink failures to minimal repros.
    for (std::size_t i = 0; i < report.cases.size(); ++i) {
        const CaseResult &r = report.cases[i];
        ++report.casesRun;
        report.totals.mergeFrom(r.faults);
        if (r.pass) {
            ++report.casesPassed;
            continue;
        }
        if (options.shrink && r.ran) {
            report.failures.push_back(shrinkCase(
                r, refOf(*caseCtx[i]), options.maxInstrs,
                report.shrinkRuns));
        } else {
            report.failures.push_back(r);
        }
    }
    // Per-scheme recovery aggregation (latency / lost-work
    // histograms, phase totals, runtime overhead): the raw material
    // of the --recovery-report Pareto table. Campaign scheme order.
    {
        report.recovery.resize(schemes.size());
        std::map<std::string, std::size_t> idxOf;
        for (std::size_t s = 0; s < schemes.size(); ++s) {
            SchemeRecoveryStats &st = report.recovery[s];
            st.scheme = schemes[s];
            st.latency.bucketWidth = 64;
            st.latency.counts.assign(kRecoveryHistBuckets, 0);
            st.lostWork.bucketWidth = 1024;
            st.lostWork.counts.assign(kRecoveryHistBuckets, 0);
            idxOf[schemes[s]] = s;
        }
        for (const CaseResult &r : report.cases) {
            if (!r.ran)
                continue;
            SchemeRecoveryStats &st =
                report.recovery[idxOf.at(r.c.scheme)];
            for (std::uint64_t w : r.recoveryWindows) {
                ++st.crashes;
                st.latency.add(w);
            }
            for (std::size_t p = 0; p < kRecoveryPhases; ++p)
                st.phaseCycles[p] += r.recoveryPhaseCycles[p];
            if (r.crashed)
                st.lostWork.add(r.lostWork);
            if (!r.dlVerdict.empty()) {
                ++st.dlChecked;
                if (r.dlVerdict == "pass")
                    ++st.dlPass;
                else if (r.dlVerdict == "violation")
                    ++st.dlViolation;
                else
                    ++st.dlVacuous;
            }
        }
        for (const Context &ctx : contexts) {
            // Jittered schedules measure the same binary under
            // perturbed timing; only schedule 0 (legacy, unjittered)
            // feeds the fault-free overhead axis.
            if (ctx.ilvIndex != 0)
                continue;
            report.recovery[idxOf.at(ctx.scheme)]
                .goldenCycles.emplace_back(ctx.app,
                                           ctx.goldenCycles);
        }
        // Runtime overhead: gmean over apps of this scheme's
        // fault-free cycles vs. the baseline scheme's. Unavailable
        // (0) unless baseline was swept.
        auto bl = idxOf.find("baseline");
        if (bl != idxOf.end()) {
            std::map<std::string, std::uint64_t> base;
            for (const auto &[app, cyc] :
                 report.recovery[bl->second].goldenCycles)
                base[app] = cyc;
            for (SchemeRecoveryStats &st : report.recovery) {
                double logSum = 0.0;
                std::size_t apps = 0;
                for (const auto &[app, cyc] : st.goldenCycles) {
                    auto it = base.find(app);
                    if (it == base.end() || it->second == 0 ||
                        cyc == 0) {
                        continue;
                    }
                    logSum +=
                        std::log(static_cast<double>(cyc) /
                                 static_cast<double>(it->second));
                    ++apps;
                }
                if (apps)
                    st.runtimeOverhead =
                        std::exp(logSum /
                                 static_cast<double>(apps));
            }
        }
    }
    return report;
}

void
CampaignReport::writeJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject(json::lines(2)).field("cases_run", casesRun);
    w.field("cases_passed", casesPassed);
    w.field("failure_count", failures.size());
    w.field("shrink_runs", shrinkRuns).key("totals");
    writeFaultStatsJson(w, totals);
    w.key("checkpoint_cache").beginObject(json::kSpaced);
    w.field("enabled", ckptCache.enabled);
    w.field("captures", ckptCache.captures);
    w.field("forks", ckptCache.forks);
    w.field("evictions", ckptCache.evictions);
    w.field("fallbacks", ckptCache.fallbacks);
    w.key("fallback_reasons").beginObject(json::kSpaced);
    for (std::size_t f = 1; f < core::kNumForkFallbacks; ++f) {
        w.field(core::forkFallbackName(
                    static_cast<core::ForkFallback>(f)),
                ckptCache.fallbackReasons[f]);
    }
    w.end().field("bytes_resident", ckptCache.bytesResident);
    w.field("entries", ckptCache.entries).end();
    w.key("recovery").beginArray(json::lines(2));
    for (const auto &st : recovery)
        writeSchemeRecoveryJson(w, st);
    w.end().key("failures").beginArray(json::lines(2));
    for (const auto &r : failures)
        writeCaseJson(w, r);
    w.end().key("cases").beginArray(json::lines(2));
    for (const auto &r : cases)
        writeCaseJson(w, r);
    w.end().end();
    os << "\n";
}

void
CampaignReport::fillStats(StatsRegistry &reg) const
{
    reg.counter("fault_campaign.cases_run").inc(casesRun);
    reg.counter("fault_campaign.cases_passed").inc(casesPassed);
    reg.counter("fault_campaign.failures").inc(failures.size());
    reg.counter("fault_campaign.shrink_runs").inc(shrinkRuns);
    reg.counter("fault_campaign.crashes_injected")
        .inc(totals.crashesInjected);
    reg.counter("fault_campaign.nested_crashes")
        .inc(totals.nestedCrashes);
    reg.counter("fault_campaign.recovery_crashes")
        .inc(totals.recoveryCrashes);
    reg.counter("fault_campaign.undo_replay_passes")
        .inc(totals.undoReplayPasses);
    reg.counter("fault_campaign.partial_replay_records")
        .inc(totals.partialReplayRecords);
    reg.counter("fault_campaign.faults_requested")
        .inc(totals.faultsRequested);
    reg.counter("fault_campaign.faults_applied")
        .inc(totals.faultsApplied);
    reg.counter("fault_campaign.corrupt_records_detected")
        .inc(totals.corruptRecordsDetected);
    reg.counter("fault_campaign.torn_tails_dropped")
        .inc(totals.tornTailsDropped);
    reg.counter("fault_campaign.region_restarts")
        .inc(totals.regionRestarts);
    reg.counter("fault_campaign.full_restarts")
        .inc(totals.fullRestarts);
    reg.counter("fault_campaign.stale_slots_detected")
        .inc(totals.staleSlotsDetected);
    reg.counter("fault_campaign.atomic_resumes")
        .inc(totals.atomicResumes);
    if (ckptCache.enabled) {
        reg.counter("ckpt.captures").inc(ckptCache.captures);
        reg.counter("ckpt.forks").inc(ckptCache.forks);
        reg.counter("ckpt.evictions").inc(ckptCache.evictions);
        reg.counter("ckpt.fallbacks").inc(ckptCache.fallbacks);
        reg.counter("ckpt.bytes_resident")
            .inc(ckptCache.bytesResident);
        reg.counter("ckpt.entries").inc(ckptCache.entries);
    }
    for (const SchemeRecoveryStats &st : recovery) {
        const std::string p = "recovery." + st.scheme + ".";
        reg.counter(p + "crashes").inc(st.crashes);
        for (std::size_t i = 0; i < kRecoveryPhases; ++i) {
            reg.counter(p + "phases." + kPhaseJsonKeys[i])
                .inc(st.phaseCycles[i]);
        }
        if (st.runtimeOverhead > 0.0) {
            reg.average(p + "runtime_overhead")
                .sample(st.runtimeOverhead);
        }
        for (const auto &[app, cycles] : st.goldenCycles)
            reg.counter(p + "golden_cycles." + app).inc(cycles);
        if (st.dlChecked) {
            reg.counter(p + "durable_lin.checked").inc(st.dlChecked);
            reg.counter(p + "durable_lin.pass").inc(st.dlPass);
            reg.counter(p + "durable_lin.violation")
                .inc(st.dlViolation);
            reg.counter(p + "durable_lin.vacuous").inc(st.dlVacuous);
        }
        // Touch the histograms so zero-crash schemes still export an
        // (empty) series with the canonical shape.
        reg.histogram(p + "latency", st.latency.bucketWidth,
                      kRecoveryHistBuckets);
        reg.histogram(p + "lost_work", st.lostWork.bucketWidth,
                      kRecoveryHistBuckets);
    }
    // Refill the histograms from the raw per-case windows: exact
    // moments (mean/max/percentiles), not bucket-quantized ones.
    for (const CaseResult &r : cases) {
        if (!r.ran)
            continue;
        const std::string p = "recovery." + r.c.scheme + ".";
        for (std::uint64_t w : r.recoveryWindows) {
            reg.histogram(p + "latency", 64, kRecoveryHistBuckets)
                .sample(w);
        }
        if (r.crashed) {
            reg.histogram(p + "lost_work", 1024,
                          kRecoveryHistBuckets)
                .sample(r.lostWork);
        }
    }
}

} // namespace cwsp::fault
