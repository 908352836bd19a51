/**
 * @file
 * The crash_campaign workload: one fault::runCampaign call per pass.
 *
 * The untraced pass makes exactly that call. runCampaign runs every
 * layer inside itself, so the traced pass instead makes the public
 * calls the campaign makes, in its order and across the same
 * BatchRunner worker pool: golden runs, crash-point enumeration,
 * checkpoint capture, then each case's crash run and its checker. Its
 * case list, verdicts and counts must equal the untraced pass's.
 */

#include <algorithm>
#include <functional>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "core/config.hh"
#include "core/consistency_checker.hh"
#include "core/interleave.hh"
#include "core/sim_checkpoint.hh"
#include "interp/interpreter.hh"
#include "obs/durable_lin.hh"
#include "stats_util.hh"
#include "workloads.hh"
#include "workloads/concurrent.hh"
#include "workloads/workload.hh"

namespace cw = cwsp;

namespace perfbench {

namespace {

/** First two fields (cycles, instructions) of a reference entry. */
std::pair<std::uint64_t, std::uint64_t>
refCyclesInstrs(const Reference &ref, const std::string &app,
                const std::string &scheme)
{
    auto it = ref.find("paper/" + app + "/" + scheme);
    if (it == ref.end())
        return {0, 0};
    std::istringstream is(it->second);
    std::uint64_t cycles = 0, instrs = 0;
    is >> cycles >> instrs;
    return {cycles, instrs};
}

bool
isConcurrent(const std::string &app)
{
    return cw::workloads::findConcurrentApp(app) != nullptr;
}

/** Order-sensitive digest of per-case verdicts. */
std::uint64_t
verdictDigest(std::uint64_t h, const std::string &label, bool pass,
              const std::string &dl)
{
    for (char ch : label + "|" + dl + (pass ? "|P" : "|F"))
        h = mix64(h ^ static_cast<unsigned char>(ch));
    return h;
}

/** Golden context of one (app, scheme, schedule), as the campaign's. */
struct Ctx
{
    std::string app;
    std::string scheme;
    bool concurrent = false;
    std::uint32_t ilv = 0;
    cw::core::SystemConfig config;
    std::shared_ptr<const cw::ir::Module> module;
    cw::Word goldenResult = 0;
    cw::interp::SparseMemory goldenMemory;
    std::vector<cw::arch::IoRecord> goldenIo;
    cw::Tick goldenCycles = 0;
    cw::core::CommitStream stream;
    bool hasStream = false;
    bool forked = false;
    cw::fault::CrashPointSet points;
    std::vector<cw::core::ThreadSpec> threads{cw::core::ThreadSpec{}};
    cw::workloads::ConcurrentSpec cspec;
    std::vector<std::vector<cw::workloads::ConcurrentOp>> cops;
};

/** Schemes with undo-log media a fault can target (as the campaign). */
bool
schemeHasLogMedia(const std::string &scheme)
{
    return scheme == "cwsp" || scheme == "ido" || scheme == "replaycache";
}

/** The campaign's case list for one context, in its order. */
std::vector<cw::fault::CampaignCase>
casesFor(const Ctx &ctx, const cw::fault::CampaignOptions &opt)
{
    using cw::fault::CampaignCase;
    using cw::fault::CrashPointKind;
    using cw::fault::CrashSchedule;
    using cw::fault::FaultKind;
    using cw::fault::MediaFault;
    std::vector<CampaignCase> cases;
    const auto &pts = ctx.points.points;
    if (pts.empty())
        return cases;
    auto base = [&](const cw::fault::CrashPoint &p) {
        CampaignCase c;
        c.app = ctx.app;
        c.scheme = ctx.scheme;
        c.pointKind = p.kind;
        c.ilvIndex = ctx.ilv;
        c.interleave = ctx.config.scheme.interleave;
        return c;
    };
    for (const auto &p : pts) {
        CampaignCase c = base(p);
        c.schedule = CrashSchedule{p.tick};
        cases.push_back(std::move(c));
    }
    cw::fault::CrashPoint pivot = pts[pts.size() / 2];
    for (const auto &p : pts)
        if (p.kind == CrashPointKind::UndoAppend)
            pivot = p;
    auto add = [&](CrashPointKind kind, CrashSchedule s,
                   std::vector<MediaFault> faults) {
        CampaignCase c = base(pivot);
        c.pointKind = kind;
        c.schedule = std::move(s);
        c.plan.faults = std::move(faults);
        cases.push_back(std::move(c));
    };
    const auto mid = CrashPointKind::MidRecovery;
    const cw::Tick t = pivot.tick;
    const cw::Tick boot = cw::core::recovery_timing::kBootCycles + 2;
    if (opt.nested) {
        add(mid, CrashSchedule{t, 1}, {});
        add(mid, CrashSchedule{t, boot}, {});
        add(pivot.kind, CrashSchedule{t, 4096}, {});
    }
    if (opt.mediaFaults && schemeHasLogMedia(ctx.scheme)) {
        add(pivot.kind, CrashSchedule{t},
            {MediaFault{FaultKind::TornAppend, 0, 0, 0, 0}});
        add(pivot.kind, CrashSchedule{t},
            {MediaFault{FaultKind::BitFlip, 0, 0, 0, 17}});
        add(pivot.kind, CrashSchedule{t},
            {MediaFault{FaultKind::StaleCheckpointSlot, 0, 0, 0, 0}});
        add(mid, CrashSchedule{t, boot},
            {MediaFault{FaultKind::TornAppend, 0, 0, 0, 0}});
    }
    return cases;
}

/** What the traced pass records of one case. */
struct CaseOutcome
{
    bool pass = false;
    std::string dlVerdict;
    cw::fault::FaultStats faults;
    std::uint64_t reexecInstrs = 0;
    std::uint64_t dlStates = 0;
};

class CrashWorkload : public Workload
{
  public:
    CrashWorkload(cw::fault::CampaignOptions opt, Reference ref)
        : opt_(std::move(opt)), ref_(std::move(ref))
    {
    }

    Pass
    run(Tracer *tr) override
    {
        return tr ? tracedPass(tr) : campaignPass();
    }

  private:
    Pass campaignPass();
    Pass tracedPass(Tracer *tr);
    void prepare(Ctx &ctx, cw::core::CheckpointCache &cache,
                 std::uint64_t op, Tracer *tr);
    CaseOutcome runCase(const cw::fault::CampaignCase &c, const Ctx &ctx,
                        cw::core::CheckpointCache &cache,
                        std::uint64_t op, Tracer *tr);
    /** Check a context's golden cycles against the paper reference. */
    bool goldenMatches(const std::string &app, const std::string &scheme,
                       std::uint64_t cycles) const;
    void finish(Pass &p, std::size_t cases) const;

    cw::fault::CampaignOptions opt_;
    Reference ref_;
};

bool
CrashWorkload::goldenMatches(const std::string &app,
                             const std::string &scheme,
                             std::uint64_t cycles) const
{
    if (isConcurrent(app))
        return true; // no per-seed reference for jittered schedules
    if (refCyclesInstrs(ref_, app, scheme).first == cycles)
        return true;
    std::cerr << "perfbench: golden run " << app << "/" << scheme
              << " took " << cycles << " cycles, reference "
              << refCyclesInstrs(ref_, app, scheme).first << "\n";
    return false;
}

void
CrashWorkload::finish(Pass &p, std::size_t cases) const
{
    p.ops = cases;
    if (cases != kCrashCampaignCases) {
        std::cerr << "perfbench: campaign ran " << cases
                  << " cases, its options imply " << kCrashCampaignCases
                  << "\n";
        p.failed += 1;
    }
}

Pass
CrashWorkload::campaignPass()
{
    Pass p;
    const double c0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    const auto rep = cw::fault::runCampaign(opt_);
    p.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    p.cpuS = cpuSeconds() - c0;

    p.failed = rep.casesRun - rep.casesPassed;
    for (const auto &f : rep.failures)
        std::cerr << "perfbench: case " << f.c.label()
                  << " failed: " << f.detail << "\n";
    for (const auto &st : rep.recovery) {
        for (const auto &[app, cycles] : st.goldenCycles)
            if (!goldenMatches(app, st.scheme, cycles))
                ++p.failed;
        if (st.scheme == "cwsp")
            p.cwspGmean = st.runtimeOverhead;
    }
    finish(p, rep.casesRun);

    Counts &c = p.counts;
    std::uint64_t digest = 0;
    for (const auto &r : rep.cases) {
        digest = verdictDigest(digest, r.c.label(), r.pass, r.dlVerdict);
        if (!isConcurrent(r.c.app))
            p.simInstrs += refCyclesInstrs(ref_, r.c.app, r.c.scheme).second;
        if (!r.dlVerdict.empty())
            ++c["checker.dl_checked"];
    }
    c["fault.verdict_digest"] = digest;
    c["fault.cases"] = rep.casesRun;
    c["fault.crashes"] = rep.totals.crashesInjected;
    c["fault.nested_crashes"] = rep.totals.nestedCrashes;
    c["recovery.undo_replay_passes"] = rep.totals.undoReplayPasses;
    c["recovery.full_restarts"] = rep.totals.fullRestarts;
    c["ckpt.captures"] = rep.ckptCache.captures;
    // Which cases fork and which fall back depends on the order the
    // golden passes insert checkpoints into the shared, byte-capped
    // LRU cache, which is thread scheduling.
    p.schedCounts["ckpt.forks"] = rep.ckptCache.forks;
    p.schedCounts["ckpt.fallbacks"] = rep.ckptCache.fallbacks;
    p.schedCounts["ckpt.evictions"] = rep.ckptCache.evictions;
    p.schedCounts["ckpt.resident_bytes"] = rep.ckptCache.bytesResident;
    c["ckpt.lookups"] = rep.ckptCache.forks + rep.ckptCache.fallbacks;
    return p;
}

void
CrashWorkload::prepare(Ctx &ctx, cw::core::CheckpointCache &cache,
                       std::uint64_t op, Tracer *tr)
{
    Tracer::Scope opSpan(tr, "op", op);
    ctx.config = cw::core::makeSystemConfig(ctx.scheme);
    if (ctx.concurrent) {
        const auto *cp = cw::workloads::findConcurrentApp(ctx.app);
        ctx.config.numCores = cp->params.numWorkers;
        ctx.config.scheme.interleave =
            cw::core::interleaveSchedule(opt_.interleaveSeed, ctx.ilv);
        ctx.config.scheme.bugCasSkipPersist = opt_.seedCasBug;
        {
            Tracer::Scope s(tr, "compiler", op);
            ctx.module = cw::workloads::buildConcurrentApp(
                *cp, ctx.config.compiler);
        }
        ctx.cspec = cw::workloads::concurrentSpec(*ctx.module, *cp);
        ctx.threads.clear();
        for (std::uint32_t t = 0; t < cp->params.numWorkers; ++t) {
            ctx.cops.push_back(cw::workloads::concurrentOps(*cp, t));
            ctx.threads.push_back(
                cw::core::ThreadSpec{"worker", {cw::Word{t}}});
        }
        {
            Tracer::Scope s(tr, "timing.interp", op);
            cw::core::WholeSystemSim sim(*ctx.module, ctx.config);
            ctx.goldenCycles = sim.run(ctx.threads, opt_.maxInstrs).cycles;
        }
        ctx.goldenResult = cp->params.opsPerWorker;
        Tracer::Scope s(tr, "fault.points", op);
        ctx.points = cw::fault::enumerateCrashPoints(
            *ctx.module, ctx.config, ctx.threads, opt_.pointsPerKind);
        return;
    }
    const auto &profile = cw::workloads::appByName(ctx.app);
    {
        Tracer::Scope s(tr, "compiler", op);
        ctx.module = cw::workloads::buildApp(profile, ctx.config.compiler);
    }
    {
        Tracer::Scope s(tr, "interp", op);
        ctx.goldenResult = cw::interp::runToCompletion(
            *ctx.module, ctx.goldenMemory, "main", {});
        ctx.goldenIo = cw::core::collectIoStream(*ctx.module, "main", {});
        if (!ctx.config.scheme.batteryBacked) {
            ctx.stream = cw::core::recordCommitStream(
                *ctx.module, "main", {}, opt_.maxInstrs,
                cw::workloads::estimatedInstrs(profile));
            ctx.hasStream = true;
        }
    }
    {
        Tracer::Scope s(tr, "fault.points", op);
        ctx.points = cw::fault::enumerateCrashPoints(
            *ctx.module, ctx.config, {cw::core::ThreadSpec{}},
            opt_.pointsPerKind);
    }
    const cw::core::CommitStream *stream =
        ctx.hasStream ? &ctx.stream : nullptr;
    if (opt_.forkCheckpoints && !ctx.points.points.empty()) {
        std::vector<cw::Tick> ticks;
        for (const auto &pt : ctx.points.points)
            ticks.push_back(pt.tick);
        std::sort(ticks.begin(), ticks.end());
        ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
        Tracer::Scope s(tr, "ckpt", op);
        cw::core::WholeSystemSim sim(*ctx.module, ctx.config);
        auto cr = sim.captureCheckpoints({cw::core::ThreadSpec{}}, ticks,
                                         opt_.maxInstrs, stream);
        ctx.goldenCycles = cr.result.cycles;
        for (auto &ck : cr.checkpoints)
            cache.insert(ctx.app + "|" + ctx.scheme + ":" +
                             std::to_string(ck->crashTick),
                         ck);
        ctx.forked = true;
        return;
    }
    Tracer::Scope s(tr, stream ? "timing" : "timing.interp", op);
    cw::core::WholeSystemSim sim(*ctx.module, ctx.config);
    ctx.goldenCycles = stream ? sim.runReplay(*stream, opt_.maxInstrs).cycles
                              : sim.run("main", {}, opt_.maxInstrs).cycles;
}

CaseOutcome
CrashWorkload::runCase(const cw::fault::CampaignCase &c, const Ctx &ctx,
                       cw::core::CheckpointCache &cache, std::uint64_t op,
                       Tracer *tr)
{
    // fault::runCase's steps, with the checker calls in their own spans.
    Tracer::Scope opSpan(tr, "op", op);
    Tracer::Scope caseSpan(tr, "fault.case", op);
    CaseOutcome o;
    try {
        cw::core::SystemConfig cfg = ctx.config;
        cfg.scheme.interleave = c.interleave;
        cw::core::WholeSystemSim sim(*ctx.module, cfg);
        if (ctx.concurrent)
            sim.setCaptureFirstCrash(true);
        std::shared_ptr<const cw::core::SimCheckpoint> fork;
        if (ctx.forked && !c.schedule.empty()) {
            fork = cache.get(ctx.app + "|" + ctx.scheme + ":" +
                             std::to_string(c.schedule.ticks[0]));
            if (fork)
                cache.noteFork();
            else
                cache.noteFallback();
        }
        auto out = sim.runWithCrashes(ctx.threads, c.schedule, c.plan,
                                      opt_.maxInstrs,
                                      ctx.hasStream ? &ctx.stream : nullptr,
                                      fork.get());
        o.faults = out.faults;
        o.reexecInstrs = out.reexecutedInstrs;
        const bool detected =
            out.faults.faultsApplied == 0 ||
            out.faults.corruptRecordsDetected +
                    out.faults.staleSlotsDetected >=
                out.faults.faultsApplied;
        if (ctx.concurrent) {
            cw::obs::DlResult dl;
            if (out.hasFirstCrash) {
                Tracer::Scope s(tr, "checker.dl", op);
                dl = cw::obs::checkDurableLinearizability(
                    ctx.cspec, ctx.cops, out.firstStores,
                    out.firstDurableImage, out.firstFullRestart);
            } else {
                dl.outcome = cw::obs::DlOutcome::Vacuous;
            }
            o.dlVerdict = cw::obs::dlOutcomeName(dl.outcome);
            o.dlStates = dl.statesExplored;
            bool resultMatch = true;
            for (auto v : out.result.returnValues)
                resultMatch &= v == ctx.goldenResult;
            o.pass = resultMatch && detected &&
                     dl.outcome != cw::obs::DlOutcome::Violation;
            return o;
        }
        bool consistent = false;
        {
            Tracer::Scope s(tr, "checker.globals", op);
            consistent = cw::core::checkGlobals(*ctx.module,
                                                ctx.goldenMemory,
                                                sim.memory())
                             .consistent;
        }
        const bool resultMatch =
            !out.result.returnValues.empty() &&
            out.result.returnValues[0] == ctx.goldenResult;
        bool ioMatch = true;
        if (out.faults.fullRestarts == 0) {
            ioMatch = out.ioStream.size() == ctx.goldenIo.size();
            for (std::size_t i = 0; ioMatch && i < out.ioStream.size();
                 ++i) {
                const auto &a = out.ioStream[i];
                const auto &b = ctx.goldenIo[i];
                ioMatch = a.device == b.device && a.payload == b.payload &&
                          a.core == b.core;
            }
        }
        o.pass = consistent && resultMatch && ioMatch && detected;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: traced case " << c.label()
                  << " threw: " << e.what() << "\n";
        o.pass = false;
    }
    return o;
}

Pass
CrashWorkload::tracedPass(Tracer *tr)
{
    Pass p;
    const double c0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    cw::driver::BatchConfig bc;
    bc.jobs = opt_.jobs;
    bc.useDiskCache = false;
    cw::driver::BatchRunner pool(bc);
    auto &cache = pool.checkpointCache();

    const auto &schemes = opt_.schemes.empty() ? cw::fault::allSchemeNames()
                                               : opt_.schemes;
    std::vector<Ctx> ctxs;
    for (const auto &app : opt_.apps) {
        const bool conc = isConcurrent(app);
        const std::uint32_t slots =
            conc ? std::max<std::uint32_t>(1, opt_.numSchedules) : 1;
        for (const auto &scheme : schemes)
            for (std::uint32_t k = 0; k < slots; ++k) {
                Ctx ctx;
                ctx.app = app;
                ctx.scheme = scheme;
                ctx.concurrent = conc;
                ctx.ilv = k;
                ctxs.push_back(std::move(ctx));
            }
    }
    {
        std::vector<std::function<void()>> prep;
        for (std::size_t i = 0; i < ctxs.size(); ++i)
            prep.push_back([&, i]() { prepare(ctxs[i], cache, i, tr); });
        pool.runTasks(prep);
    }

    std::vector<cw::fault::CampaignCase> cases;
    std::vector<const Ctx *> caseCtx;
    for (const auto &ctx : ctxs)
        for (auto &c : casesFor(ctx, opt_)) {
            cases.push_back(std::move(c));
            caseCtx.push_back(&ctx);
        }
    std::vector<CaseOutcome> outs(cases.size());
    {
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < cases.size(); ++i)
            tasks.push_back([&, i]() {
                outs[i] = runCase(cases[i], *caseCtx[i], cache,
                                  ctxs.size() + i, tr);
            });
        pool.runTasks(tasks);
    }
    const auto cs = cache.stats();
    p.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    p.cpuS = cpuSeconds() - c0;

    Counts &c = p.counts;
    for (const auto &ctx : ctxs) {
        if (ctx.ilv == 0 &&
            !goldenMatches(ctx.app, ctx.scheme, ctx.goldenCycles))
            ++p.failed;
        if (!ctx.forked)
            ++c[ctx.hasStream ? "timing.replays" : "timing.interp_runs"];
    }
    cw::fault::FaultStats totals;
    std::uint64_t digest = 0;
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const auto &o = outs[i];
        p.failed += o.pass ? 0 : 1;
        totals.mergeFrom(o.faults);
        digest = verdictDigest(digest, cases[i].label(), o.pass,
                               o.dlVerdict);
        if (!isConcurrent(cases[i].app))
            p.simInstrs +=
                refCyclesInstrs(ref_, cases[i].app, cases[i].scheme).second;
        if (!o.dlVerdict.empty())
            ++c["checker.dl_checked"];
        c["recovery.reexec_instrs"] += o.reexecInstrs;
        c["checker.dl_states"] += o.dlStates;
    }
    finish(p, cases.size());
    c["fault.verdict_digest"] = digest;
    c["fault.cases"] = cases.size();
    c["fault.crashes"] = totals.crashesInjected;
    c["fault.nested_crashes"] = totals.nestedCrashes;
    c["recovery.undo_replay_passes"] = totals.undoReplayPasses;
    c["recovery.full_restarts"] = totals.fullRestarts;
    c["ckpt.captures"] = cs.captures;
    c["ckpt.lookups"] = cs.forks + cs.fallbacks;
    p.schedCounts["ckpt.forks"] = cs.forks;
    p.schedCounts["ckpt.fallbacks"] = cs.fallbacks;
    p.schedCounts["ckpt.evictions"] = cs.evictions;
    p.schedCounts["ckpt.resident_bytes"] = cs.bytesResident;
    return p;
}

} // namespace

std::unique_ptr<Workload>
makeCrashWorkload(const Env &env)
{
    Reference ref;
    std::string err;
    if (!loadReference(env.refDir + "/paper_sweep.ref", ref, err))
        throw std::runtime_error(err);
    return std::make_unique<CrashWorkload>(
        crashCampaignOptions(env.seed, env.jobs), std::move(ref));
}

} // namespace perfbench
