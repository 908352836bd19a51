#include "core/whole_system_sim.hh"

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>

#include "core/crash_injection.hh"
#include "core/recovery_engine.hh"
#include "core/sim_checkpoint.hh"
#include "sim/state_capture.hh"
#include "sim/stats.hh"
#include "sim/logging.hh"

namespace cwsp::core {

namespace {

/**
 * The boundary-snapshot window of a recording: the control snapshot
 * of each core's last 4 x RBT-capacity + 16 regions. Older regions are
 * long persisted, so no resume point can name them.
 */
class SnapshotWindow
{
  public:
    SnapshotWindow(RecordingBundle &bundle, const SystemConfig &config)
        : bundle_(bundle), keep_(4 * config.scheme.rbtCapacity + 16),
          rings_(config.numCores)
    {
    }

    /** Record @p snap as the snapshot of @p core's new region @p id. */
    void
    add(CoreId core, RegionId id, interp::ControlSnapshot snap)
    {
        bundle_.snapshots[id] = std::move(snap);
        auto &r = rings_[core];
        r.push_back(id);
        if (r.size() > keep_) {
            bundle_.snapshots.erase(r.front());
            r.pop_front();
        }
    }

  private:
    RecordingBundle &bundle_;
    std::size_t keep_;
    std::vector<std::deque<RegionId>> rings_;
};

/**
 * Log reserve of a recording: twice the tightest instruction estimate
 * available (the caller's hint, else the stream's exact count),
 * capped by the budget.
 */
std::uint64_t
recordingReserve(std::uint64_t hint, const CommitStream *replay,
                 std::uint64_t max_instrs)
{
    std::uint64_t expected = hint != 0 ? hint : replay ? replay->steps : 0;
    return expected != 0 ? std::min(max_instrs, 2 * expected)
                         : max_instrs;
}

/**
 * @p replay when it can drive a run of @p threads: one core, the
 * stream's own program, and a scheme whose crash handling needs no
 * live interpreter (battery-backed schemes snapshot one). Else null.
 */
const CommitStream *
usableStream(const CommitStream *replay, const ir::Module &module,
             const SystemConfig &config,
             const std::vector<ThreadSpec> &threads)
{
    bool ok = replay && threads.size() == 1 &&
              !config.scheme.batteryBacked &&
              replay->matches(module, threads[0].entry, threads[0].args);
    return ok ? replay : nullptr;
}

/**
 * Sink that forwards commits to the scheme and snapshots the
 * committing interpreter's control state at each region boundary.
 */
class RecordingSink final : public interp::CommitSink
{
  public:
    RecordingSink(
        arch::Scheme &scheme, SnapshotWindow &window,
        const std::vector<std::unique_ptr<interp::Interpreter>> &cores)
        : scheme_(scheme), window_(window), cores_(cores)
    {
    }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        scheme_.onCommit(info);
        if (info.kind == interp::CommitKind::Boundary) {
            window_.add(info.core, scheme_.currentRegion(info.core),
                        cores_[info.core]->snapshot());
        }
    }

  private:
    arch::Scheme &scheme_;
    SnapshotWindow &window_;
    const std::vector<std::unique_ptr<interp::Interpreter>> &cores_;
};

/**
 * Where an execution stopped: steps spent, and per core its finish
 * clock, return value, whether it is done (or had nothing to run),
 * and — battery-backed schemes only — its exact control state. A
 * checkpoint stores exactly this, and a forked epoch reads it back.
 */
struct EpochOutcome
{
    std::uint64_t steps = 0;
    std::vector<Tick> finishedAt;
    std::vector<Word> returns;
    std::vector<std::uint8_t> finished;
    std::vector<interp::ControlSnapshot> exact;
};

/**
 * A resumable position in a commit stream (core 0). advance() applies
 * ops up to an instant and stops; the next advance() continues from
 * there. An instant inside a constant-cost batch splits it: the cursor
 * retires the steps that start by the instant and keeps the rest.
 * retireBatch() is additive, so a split retirement lands every later
 * op on the same cycles as one uncut retirement.
 *
 * A timed cursor drives the scheme (batches retire arithmetically);
 * an untimed one only writes memory, logs device output and counts
 * steps. Stores and atomics write memory before the scheme sees them,
 * as the interpreter does before its sink callback.
 */
class StreamCursor
{
  public:
    /**
     * @param scheme timing model to drive; null for an untimed cursor.
     * @param io     device-output log of an untimed cursor.
     * @param window rebuilt from the stream's flattened boundary
     *               snapshots when set (timed cursors only).
     */
    StreamCursor(const CommitStream &stream, interp::SparseMemory &memory,
                 arch::Scheme *scheme, std::vector<arch::IoRecord> *io,
                 SnapshotWindow *window, std::uint64_t max_instrs)
        : stream_(stream), memory_(memory), scheme_(scheme), io_(io),
          window_(window), maxInstrs_(max_instrs)
    {
    }

    /** Skip, unapplied, every commit before commit number @p commit. */
    void
    seek(std::uint64_t commit)
    {
        for (std::uint64_t commits = 0;
             op_ < stream_.ops.size() && commits < commit; ++op_) {
            const CommitStream::Op &op = stream_.ops[op_];
            if (isBatch(op)) {
                // Each batched step is exactly one commit.
                if (commits + op.aux > commit) {
                    batchDone_ = commit - commits;
                    return;
                }
                commits += op.aux;
                continue;
            }
            auto kind = static_cast<interp::CommitKind>(op.kind);
            commits += kind != interp::CommitKind::AtomicPrepare;
            boundary_ += kind == interp::CommitKind::Boundary;
        }
    }

    /**
     * Apply ops until the next step would start after @p limit
     * (kTickNever: to the end; the only limit an untimed cursor
     * takes). A step executes iff its start cycle has not passed the
     * limit.
     */
    void
    advance(Tick limit)
    {
        constexpr CoreId core = 0;
        const bool cut = limit != kTickNever;
        // Position and step count live in locals: members would be
        // reloaded after every memory write and scheme call.
        const CommitStream::Op *const ops = stream_.ops.data();
        const std::size_t end = stream_.ops.size();
        std::size_t i = op_;
        std::uint64_t steps = steps_;
        const std::uint64_t budget = maxInstrs_;
        auto count = [&](std::uint64_t n) {
            steps += n;
            if (steps > budget)
                cwsp_fatal("instruction budget exceeded (", budget, ")");
        };
        for (; i < end; ++i) {
            const CommitStream::Op &op = ops[i];
            if (isBatch(op)) {
                const Tick per = op.kind == CommitStream::kBatch1 ? 1 : 2;
                std::uint64_t run = op.aux - batchDone_;
                if (cut) {
                    Tick c = scheme_->cycles(core);
                    if (c > limit)
                        break;
                    run = std::min<std::uint64_t>(run,
                                                  (limit - c) / per + 1);
                }
                count(run);
                if (scheme_)
                    scheme_->retireBatch(core, run,
                                         static_cast<Tick>(run) * per);
                batchDone_ += run;
                if (batchDone_ < op.aux)
                    break; // the instant falls inside the batch
                batchDone_ = 0;
                continue;
            }

            if (op.flags & CommitStream::kFlagNewStep) {
                if (cut && scheme_->cycles(core) > limit)
                    break;
                count(1);
            }
            const auto kind = static_cast<interp::CommitKind>(op.kind);
            if (kind == interp::CommitKind::Store ||
                kind == interp::CommitKind::Atomic) {
                memory_.write(op.addr, op.value);
            }
            if (!scheme_) {
                if (kind == interp::CommitKind::Io)
                    io_->push_back(arch::IoRecord{op.addr, op.value, 0, 0});
                boundary_ += kind == interp::CommitKind::Boundary;
                continue;
            }
            interp::CommitInfo info;
            info.kind = kind;
            info.core = core;
            info.addr = op.addr;
            info.storeValue = op.value;
            info.isCheckpoint = (op.flags & CommitStream::kFlagCkpt) != 0;
            info.func = op.func;
            if (kind == interp::CommitKind::Boundary)
                info.staticRegion = op.aux;
            scheme_->onCommit(info);
            if (kind != interp::CommitKind::Boundary)
                continue;
            if (window_) {
                const CommitStream::SnapRef &ref =
                    stream_.snapRefs[boundary_];
                auto first = stream_.frames.begin() + ref.begin;
                window_->add(core, scheme_->currentRegion(core),
                             {std::vector<interp::Frame>(
                                 first, first + ref.count)});
            }
            ++boundary_;
        }
        op_ = i;
        steps_ = steps;
    }

    /** Top-level steps applied (fatal past the budget). */
    std::uint64_t steps() const { return steps_; }

    /** Where the cursor stands, as a single-core epoch outcome. */
    EpochOutcome
    outcome() const
    {
        const bool done = op_ == stream_.ops.size();
        return EpochOutcome{steps_,
                            {done ? scheme_->cycles(0) : kTickNever},
                            {done ? stream_.returnValue : 0},
                            {static_cast<std::uint8_t>(done)},
                            {}};
    }

  private:
    static bool
    isBatch(const CommitStream::Op &op)
    {
        return op.kind == CommitStream::kBatch1 ||
               op.kind == CommitStream::kBatch2;
    }

    const CommitStream &stream_;
    interp::SparseMemory &memory_;
    arch::Scheme *scheme_;
    std::vector<arch::IoRecord> *io_;
    SnapshotWindow *window_;
    std::uint64_t maxInstrs_;
    std::size_t op_ = 0;          ///< next op to apply
    std::uint64_t batchDone_ = 0; ///< steps of ops[op_] already retired
    std::size_t boundary_ = 0;    ///< Boundary ops passed
    std::uint64_t steps_ = 0;
};

/**
 * The interpreter cores of one execution and their one scheduler: the
 * core with the lowest clock steps next (ties go to the lowest core),
 * which gives shared-memory workloads a deterministic interleaving. A
 * core whose clock has passed the limit waits, so the schedule up to
 * an instant is a prefix of the free-run schedule and one pass can
 * stop at several instants in turn.
 */
class CoreScheduler
{
  public:
    /**
     * @param clock scheme whose core cycles order the cores; null for
     *        an untimed execution, ordered by committed instructions.
     */
    CoreScheduler(std::size_t n, const arch::Scheme *clock,
                  std::uint64_t max_instrs)
        : cores(n), finishedAt(n, kTickNever), clock_(clock),
          maxInstrs_(max_instrs)
    {
    }

    /** Null entries are cores with nothing to run. */
    std::vector<std::unique_ptr<interp::Interpreter>> cores;
    /** Clock at which each core finished (kTickNever: running). */
    std::vector<Tick> finishedAt;
    std::uint64_t steps = 0; ///< fatal past the budget

    /** Create core @p c on @p memory. */
    interp::Interpreter &
    add(std::size_t c, const ir::Module &module,
        interp::SparseMemory &memory)
    {
        cores[c] = std::make_unique<interp::Interpreter>(
            module, memory, static_cast<CoreId>(c));
        return *cores[c];
    }

    /** Step cores until each is finished or past @p limit. */
    void
    advance(Tick limit, interp::CommitSink &sink)
    {
        if (cores.size() == 1 && cores[0]) {
            // Single-core fast path: the pick below always selects
            // the only core, so skip it (it is measurable at this
            // loop's trip count).
            interp::Interpreter &core = *cores[0];
            while (!core.finished() &&
                   (limit == kTickNever || clockOf(0) <= limit))
                step(core, sink);
            if (core.finished() && finishedAt[0] == kTickNever)
                finishedAt[0] = clockOf(0);
            return;
        }
        while (true) {
            interp::Interpreter *next = nullptr;
            Tick best = kTickNever;
            for (std::size_t c = 0; c < cores.size(); ++c) {
                if (!cores[c])
                    continue;
                if (cores[c]->finished()) {
                    if (finishedAt[c] == kTickNever)
                        finishedAt[c] = clockOf(c);
                    continue;
                }
                Tick t = clockOf(c);
                if (t <= limit && t < best) {
                    best = t;
                    next = cores[c].get();
                }
            }
            if (!next)
                return;
            step(*next, sink);
        }
    }

    /** Where the cores stand (exact state only if @p battery_backed). */
    EpochOutcome
    outcome(bool battery_backed) const
    {
        const std::size_t n = cores.size();
        EpochOutcome eo{steps, finishedAt, std::vector<Word>(n, 0),
                        std::vector<std::uint8_t>(n, 1), {}};
        if (battery_backed)
            eo.exact.resize(n);
        for (std::size_t c = 0; c < n; ++c) {
            if (!cores[c])
                continue;
            eo.returns[c] = cores[c]->returnValue();
            eo.finished[c] = cores[c]->finished();
            if (battery_backed && !cores[c]->finished())
                eo.exact[c] = cores[c]->exactSnapshot();
        }
        return eo;
    }

  private:
    Tick
    clockOf(std::size_t c) const
    {
        return clock_ ? clock_->cycles(static_cast<CoreId>(c))
                      : cores[c]->committed();
    }

    void
    step(interp::Interpreter &core, interp::CommitSink &sink)
    {
        core.step(sink);
        if (++steps > maxInstrs_)
            cwsp_fatal("instruction budget exceeded (", maxInstrs_, ")");
    }

    const arch::Scheme *clock_;
    std::uint64_t maxInstrs_;
};

/** What one core does when a crash epoch begins. */
struct EpochEntry
{
    enum class Kind { Fresh, Resume, Continue, Done } kind =
        Kind::Fresh;
    ResumePoint rp{};
    /** Bundle owning rp's control snapshot (Resume only). It may be
     *  a checkpoint's immutable prefix copy, hence const. */
    std::shared_ptr<const RecordingBundle> bundle;
    /** Exact crash-instant control state (Continue only): battery-
     *  backed schemes persist the execution context on failure. */
    interp::ControlSnapshot exact;
    Word returnValue = 0; ///< Done only
};

/** Committed-instruction count at the begin of @p region (0: none). */
std::uint64_t
instrsAtBegin(const RecordingBundle &bundle, RegionId region)
{
    for (const auto &ev : bundle.regions) {
        if (ev.region == region)
            return ev.instrsAtBegin;
    }
    return 0;
}

} // namespace

const char *
forkFallbackName(ForkFallback f)
{
    switch (f) {
      case ForkFallback::None: return "none";
      case ForkFallback::Missing: return "missing";
      case ForkFallback::Identity: return "identity";
      case ForkFallback::Tick: return "tick";
      case ForkFallback::Sink: return "sink";
      case ForkFallback::TraceGeometry: return "trace_geometry";
      case ForkFallback::SamplerGeometry: return "sampler_geometry";
    }
    return "?";
}

const char *
recoveryPhaseName(RecoveryPhase p)
{
    switch (p) {
      case RecoveryPhase::Detect: return "detect";
      case RecoveryPhase::Scan: return "scan";
      case RecoveryPhase::UndoReplay: return "undo_replay";
      case RecoveryPhase::SliceReexec: return "slice_reexec";
      case RecoveryPhase::Resume: return "resume";
    }
    return "?";
}

namespace {

/** Detect portion of the boot constant; the rest is the log scan. */
constexpr Tick kDetectCycles = 16;
static_assert(kDetectCycles < recovery_timing::kBootCycles,
              "detect phase must leave room for the scan phase");

/**
 * One recovery window, tiled into its phases: boot splits into detect
 * + scan, then undo replay and slice re-execution. Battery-backed
 * windows are boot-only (zero records and ops).
 */
RecoveryBreakdown
tileRecoveryWindow(std::uint64_t replay_records, std::uint64_t slice_ops)
{
    using namespace recovery_timing;
    RecoveryBreakdown b;
    b.replayRecords = replay_records;
    b.sliceOps = slice_ops;
    auto phase = [&](RecoveryPhase p) -> Tick & {
        return b.phase[static_cast<std::size_t>(p)];
    };
    phase(RecoveryPhase::Detect) = kDetectCycles;
    phase(RecoveryPhase::Scan) = kBootCycles - kDetectCycles;
    phase(RecoveryPhase::UndoReplay) =
        replay_records * kCyclesPerReplayRecord;
    phase(RecoveryPhase::SliceReexec) = slice_ops * kCyclesPerSliceOp;
    for (Tick t : b.phase)
        b.window += t;
    return b;
}

/** Emit one RecoveryPhase span per non-empty phase, tiling
 *  [crash_at, crash_at + window) in phase order. */
void
traceRecoveryPhases(sim::TraceBuffer *trace, Tick crash_at,
                    const RecoveryBreakdown &b)
{
    if (!trace)
        return;
    Tick at = crash_at;
    for (std::size_t p = 0; p < kNumRecoveryPhases; ++p) {
        std::uint64_t items = 0;
        if (p == static_cast<std::size_t>(RecoveryPhase::UndoReplay))
            items = b.replayRecords;
        else if (p ==
                 static_cast<std::size_t>(RecoveryPhase::SliceReexec))
            items = b.sliceOps;
        if (b.phase[p] == 0 &&
            p != static_cast<std::size_t>(RecoveryPhase::Resume))
            continue;
        trace->record(sim::TraceEventKind::RecoveryPhase,
                      sim::coreLane(0), at, b.phase[p], p, items);
        at += b.phase[p];
    }
}

} // namespace

Tick
defaultSamplePeriod(const SystemConfig &config)
{
    // A few persist round trips per sample: fine enough to watch
    // occupancy evolve, coarse enough that a multi-million-cycle run
    // stays in the low thousands of samples.
    const auto &p = config.scheme.path;
    Tick round_trip =
        2 * (Tick{p.oneWayLatency} + Tick{p.numaExtraCycles});
    Tick period = 32 * round_trip;
    return period ? period : 1024;
}

std::vector<arch::IoRecord>
collectIoStream(const ir::Module &module, const std::string &entry,
                const std::vector<Word> &args)
{
    return goldenRun(module, entry, args, 200'000'000, 0, false).io;
}

WholeSystemSim::WholeSystemSim(const ir::Module &module,
                               const SystemConfig &config,
                               sim::SimArena *arena)
    : module_(&module), config_(config)
{
    cwsp_assert(module.laidOut(), "module must be laid out");
    if (arena) {
        arena_ = arena;
    } else {
        ownArena_ = std::make_unique<sim::SimArena>();
        arena_ = ownArena_.get();
    }
    reset();
}

WholeSystemSim::~WholeSystemSim()
{
    // Arena-backed containers inside the scheme/hierarchy abandon
    // their storage to the arena; drop the objects before the arena
    // (or its chunks, for an external arena the caller rewinds) goes.
    scheme_.reset();
    hierarchy_.reset();
}

void
WholeSystemSim::reset()
{
    // Rewind, don't free: the per-run hot state (cache tag arrays,
    // ring buffers, flat maps) is bump-allocated, so consecutive runs
    // — in particular batch workers sweeping many design points —
    // reuse warm chunks. Destruction order matters: the old scheme
    // and hierarchy must drop their arena-backed containers before
    // the storage is rewound. The functional memory stays heap-backed
    // (durable images outlive resets in crash runs).
    scheme_.reset();
    hierarchy_.reset();
    arena_->reset();
    memory_ = std::make_unique<interp::SparseMemory>();
    {
        sim::ArenaScope scope(arena_);
        hierarchy_ = std::make_unique<mem::Hierarchy>(
            config_.hierarchy, config_.numCores);
        scheme_ = arch::makeScheme(config_.scheme, *hierarchy_,
                                   config_.numCores);
    }
    hierarchy_->setTrace(trace_);
    scheme_->setTrace(trace_);
    wireSampler();
}

void
WholeSystemSim::attachSampler(sim::CounterSampler *sampler)
{
    sampler_ = sampler;
    wireSampler();
}

void
WholeSystemSim::wireSampler()
{
    scheme_->setSampler(sampler_);
    if (!sampler_)
        return;
    // Fixed registration order (cores, then MCs) keeps track indices
    // and capture geometry stable across resets and design points of
    // the same shape. Probes bind against the *current* components;
    // every reset re-binds them here.
    arch::Scheme *s = scheme_.get();
    mem::Hierarchy *h = hierarchy_.get();
    auto track = [&](const std::string &name, std::uint16_t lane,
                     sim::CounterSampler::Probe probe) {
        sampler_->bindProbe(sampler_->ensureTrack(name, lane),
                            std::move(probe));
    };
    for (CoreId c = 0; c < config_.numCores; ++c) {
        std::string p = "core" + std::to_string(c) + ".";
        std::uint16_t lane = sim::coreLane(c);
        track(p + "pb_occupancy", lane, [s, c](Tick at) {
            return std::uint64_t{s->pb(c).occupancyAt(at)};
        });
        track(p + "rbt_entries", lane, [s, c](Tick) {
            return std::uint64_t{s->rbt(c).liveEntries()};
        });
        track(p + "open_region", lane, [s, c](Tick) {
            return std::uint64_t{s->rbt(c).hasOpenRegion() ? 1u : 0u};
        });
        track(p + "wb_occupancy", lane, [h, c](Tick at) {
            return std::uint64_t{h->writeBuffer(c).occupancyAt(at)};
        });
        track(p + "path_queue_delay", lane, [s, c](Tick) {
            return std::uint64_t{s->path(c).lastQueueDelay()};
        });
        track(p + "path_bytes", lane, [s, c](Tick) {
            return s->path(c).bytesSent();
        });
        track(p + "stall_events", lane, [s, c](Tick) {
            return s->pb(c).fullStalls() + s->rbt(c).fullStalls();
        });
    }
    for (McId m = 0; m < hierarchy_->numMcs(); ++m) {
        std::string p = "mc" + std::to_string(m) + ".";
        std::uint16_t lane = sim::mcLane(m);
        track(p + "wpq_depth", lane, [h, m](Tick at) {
            return std::uint64_t{h->mc(m).wpqDepthAt(at)};
        });
        track(p + "undo_log_bytes", lane, [h, m](Tick) {
            // One undo record = 8B address + 8B old value.
            return h->mc(m).loggedStores() * 16;
        });
        track(p + "wpq_full_stalls", lane, [h, m](Tick) {
            return h->mc(m).fullStalls();
        });
    }
}

void
WholeSystemSim::attachTrace(sim::TraceBuffer *trace)
{
    if (ownTrace_ && trace != ownTrace_.get())
        ownTrace_.reset();
    trace_ = trace;
    if (!trace_ && sink_) {
        // Detaching the buffer must not silently detach the
        // observer: keep it fed through an internal buffer.
        ownTrace_ = std::make_unique<sim::TraceBuffer>(
            2, sim::kTraceAll);
        trace_ = ownTrace_.get();
    }
    if (trace_)
        trace_->setSink(sink_);
    hierarchy_->setTrace(trace_);
    scheme_->setTrace(trace_);
}

void
WholeSystemSim::attachTraceSink(sim::TraceSink *sink)
{
    sink_ = sink;
    if (sink_ && !trace_) {
        // The sink observes the full stream regardless of ring
        // capacity, so the internal buffer stays minimal.
        ownTrace_ = std::make_unique<sim::TraceBuffer>(
            2, sim::kTraceAll);
        trace_ = ownTrace_.get();
        hierarchy_->setTrace(trace_);
        scheme_->setTrace(trace_);
    }
    if (!sink_ && ownTrace_) {
        ownTrace_.reset();
        trace_ = nullptr;
        hierarchy_->setTrace(nullptr);
        scheme_->setTrace(nullptr);
        return;
    }
    if (trace_)
        trace_->setSink(sink_);
}

RunResult
WholeSystemSim::collectStats(const std::vector<Word> &return_values)
{
    RunResult r;
    for (std::size_t c = 0; c < return_values.size(); ++c) {
        r.cycles = std::max(r.cycles,
                            scheme_->cycles(static_cast<CoreId>(c)));
        r.instructions += scheme_->instrs(static_cast<CoreId>(c));
        r.returnValues.push_back(return_values[c]);
    }
    r.meanRegionInstrs = scheme_->meanRegionInstrs();
    r.meanWbOccupancy = hierarchy_->meanWbOccupancy();
    r.wpqHits = hierarchy_->wpqHits();
    r.nvmReads = hierarchy_->nvmReads();
    r.l1Accesses = hierarchy_->l1Accesses();
    r.l1Misses = hierarchy_->l1Misses();
    r.dramCacheHits = hierarchy_->dramCacheHits();
    r.dramCacheMisses = hierarchy_->dramCacheMisses();
    r.pbFullStalls = scheme_->pbFullStalls();
    r.rbtFullStalls = scheme_->rbtFullStalls();
    std::uint64_t wbd = 0;
    for (std::uint32_t c = 0; c < config_.numCores; ++c)
        wbd += hierarchy_->writeBuffer(c).persistDelays();
    r.wbPersistDelays = wbd;
    return r;
}

RunResult
WholeSystemSim::run(const std::vector<ThreadSpec> &threads,
                    std::uint64_t max_instrs)
{
    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    reset();
    CoreScheduler sched(threads.size(), scheme_.get(), max_instrs);
    for (std::size_t c = 0; c < threads.size(); ++c) {
        sched.add(c, *module_, *memory_)
            .start(threads[c].entry, threads[c].args, *scheme_);
    }
    sched.advance(kTickNever, *scheme_);
    return collectStats(sched.outcome(false).returns);
}

RunResult
WholeSystemSim::runReplay(const CommitStream &stream,
                          std::uint64_t max_instrs)
{
    cwsp_assert(stream.module == module_,
                "commit stream recorded for a different module");
    reset();
    StreamCursor(stream, *memory_, scheme_.get(), nullptr, nullptr,
                 max_instrs)
        .advance(kTickNever);
    return collectStats(std::vector<Word>{stream.returnValue});
}

void
WholeSystemSim::fillStats(StatsRegistry &reg,
                          const std::string &prefix) const
{
    // Trace-ring health rides with the component stats so batch
    // aggregates and stats-JSON diffs surface truncation
    // (cwsp_analyze warns on a nonzero trace_drops).
    if (trace_) {
        reg.counter(prefix + "trace.recorded")
            .inc(trace_->recorded());
        reg.counter(prefix + "trace.trace_drops")
            .inc(trace_->dropped());
    }
    for (std::uint32_t c = 0; c < config_.numCores; ++c) {
        std::string p = prefix + "core" + std::to_string(c) + ".";
        reg.counter(p + "instrs").inc(scheme_->instrs(c));
        reg.counter(p + "cycles").inc(scheme_->cycles(c));
        const auto &wb = hierarchy_->writeBuffer(c);
        reg.counter(p + "wb.inserts").inc(wb.inserts());
        reg.counter(p + "wb.fullStalls").inc(wb.fullStalls());
        reg.counter(p + "wb.persistDelays").inc(wb.persistDelays());
    }
    reg.counter(prefix + "scheme.pbFullStalls")
        .inc(scheme_->pbFullStalls());
    reg.counter(prefix + "scheme.rbtFullStalls")
        .inc(scheme_->rbtFullStalls());
    reg.average(prefix + "scheme.regionInstrs")
        .sample(scheme_->meanRegionInstrs());
    const auto &rih = scheme_->regionInstrHistogram();
    reg.histogram(prefix + "scheme.regionInstrHist",
                  rih.bucketWidth(), rih.buckets().size())
        .mergeFrom(rih);
    const auto &pbh = scheme_->pbStallHistogram();
    reg.histogram(prefix + "scheme.pbStallHist", pbh.bucketWidth(),
                  pbh.buckets().size())
        .mergeFrom(pbh);
    reg.counter(prefix + "mem.l1.accesses")
        .inc(hierarchy_->l1Accesses());
    reg.counter(prefix + "mem.l1.misses").inc(hierarchy_->l1Misses());
    reg.counter(prefix + "mem.dram$.hits")
        .inc(hierarchy_->dramCacheHits());
    reg.counter(prefix + "mem.dram$.misses")
        .inc(hierarchy_->dramCacheMisses());
    reg.counter(prefix + "mem.nvm.reads").inc(hierarchy_->nvmReads());
    reg.counter(prefix + "mem.wpq.loadHits")
        .inc(hierarchy_->wpqHits());
    for (McId m = 0; m < hierarchy_->numMcs(); ++m) {
        std::string p = prefix + "mc" + std::to_string(m) + ".";
        const auto &mc = hierarchy_->mc(m);
        reg.counter(p + "wpq.admissions").inc(mc.admissions());
        reg.counter(p + "wpq.fullStalls").inc(mc.fullStalls());
        reg.counter(p + "loggedStores").inc(mc.loggedStores());
        reg.counter(p + "evictionWrites").inc(mc.evictionWrites());
    }
}

void
WholeSystemSim::dumpStats(std::ostream &os) const
{
    StatsRegistry reg;
    fillStats(reg);
    reg.dump(os);
}

void
WholeSystemSim::exportStatsJson(std::ostream &os) const
{
    StatsRegistry reg;
    fillStats(reg);
    if (!sampler_) {
        reg.exportJson(os);
        os << "\n";
        return;
    }
    // Splice the sampled series in as a `time_series` section: the
    // registry's export is a single JSON object, so drop its closing
    // brace and append the extra member.
    std::ostringstream body;
    reg.exportJson(body);
    std::string text = body.str();
    std::size_t close = text.find_last_of('}');
    cwsp_assert(close != std::string::npos,
                "stats export is not a JSON object");
    os << text.substr(0, close);
    os << (close > 1 ? ", " : "") << "\"time_series\": ";
    sampler_->exportJson(os);
    os << "}\n";
}

RunResult
WholeSystemSim::run(const std::string &entry, std::vector<Word> args,
                    std::uint64_t max_instrs)
{
    return run({ThreadSpec{entry, std::move(args)}}, max_instrs);
}

CrashRunResult
WholeSystemSim::runWithCrash(const std::vector<ThreadSpec> &threads,
                             Tick crash_tick, std::uint64_t max_instrs)
{
    return runWithCrashes(threads, fault::CrashSchedule{crash_tick},
                          fault::FaultPlan{}, max_instrs);
}

CrashRunResult
WholeSystemSim::runWithCrashes(const std::vector<ThreadSpec> &threads,
                               const fault::CrashSchedule &schedule,
                               const fault::FaultPlan &faults,
                               std::uint64_t max_instrs,
                               const CommitStream *replay,
                               const SimCheckpoint *fork)
{
    using recovery_timing::kBootCycles;
    using recovery_timing::kCyclesPerReplayRecord;

    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    cwsp_assert(!schedule.empty(),
                "crash schedule must hold at least one failure");
    const std::size_t n = threads.size();
    const bool battery = config_.scheme.batteryBacked;

    // A fork is only sound when the checkpoint describes exactly this
    // run: same program, scheme, thread set, and first crash tick. An
    // external trace sink must observe the prefix events (which a
    // fork skips), and an attached trace ring must match the captured
    // geometry; any mismatch falls back to from-scratch execution.
    CrashRunResult out;
    out.crashTick = schedule.ticks[0];
    if (fork) {
        bool same = fork->module == module_ &&
                    fork->schemeName == config_.scheme.name &&
                    fork->threads.size() == n;
        for (std::size_t c = 0; same && c < n; ++c) {
            same = fork->threads[c].entry == threads[c].entry &&
                   fork->threads[c].args == threads[c].args;
        }
        if (!same)
            out.fork = ForkFallback::Identity;
        else if (fork->crashTick != schedule.ticks[0])
            out.fork = ForkFallback::Tick;
        else if (sink_)
            out.fork = ForkFallback::Sink;
        else if (trace_ && (!fork->hasTrace ||
                            fork->traceCapacity != trace_->capacity() ||
                            fork->traceMask != trace_->mask()))
            out.fork = ForkFallback::TraceGeometry;
        else if (sampler_ &&
                 (!fork->hasSampler ||
                  fork->samplerPeriod != sampler_->period() ||
                  fork->samplerTracks != sampler_->trackCount()))
            out.fork = ForkFallback::SamplerGeometry;
        else
            out.fork = ForkFallback::None;
        if (out.fork != ForkFallback::None)
            fork = nullptr;
    }
    const std::uint64_t reserve =
        recordingReserve(expectedInstrs_, replay, max_instrs);
    const CommitStream *stream =
        usableStream(replay, *module_, config_, threads);

    // Epoch state: the durable NVM image, the stamped checkpoint-slot
    // image of the latest failure, and each core's entry action.
    interp::SparseMemory durable;
    bool durableEmpty = true;
    std::map<Addr, SlotImageEntry> slotImage;
    std::vector<EpochEntry> entries(n);
    std::size_t scheduleIdx = 0;
    bool havePending = true;
    Tick pendingDt = schedule.ticks[0];
    bool firstEpoch = true;

    auto traceResume = [&](std::size_t c, Tick when, bool restart) {
        if (trace_) {
            trace_->record(sim::TraceEventKind::RecoveryResume,
                           sim::coreLane(static_cast<CoreId>(c)), when,
                           0, 0, restart ? 1 : 0);
        }
    };
    // Degrade to a full restart: pristine memory, every core from
    // program entry.
    auto restartAll = [&] {
        durable.clear();
        durableEmpty = true;
        slotImage.clear();
        for (auto &e : entries)
            e = EpochEntry{};
    };
    // Create and enter each core of an epoch on @p mem as its entry
    // says. A resume slice that reads a checkpoint slot the media
    // dropped degrades the run to a full restart and returns false;
    // the caller then retries the epoch.
    auto enterCores = [&](CoreScheduler &sched, interp::SparseMemory &mem,
                          interp::CommitSink &sink,
                          interp::CommitSink *boundary_sink, Tick when) {
        for (std::size_t c = 0; c < n; ++c) {
            const EpochEntry &e = entries[c];
            sched.cores[c].reset();
            if (e.kind == EpochEntry::Kind::Done) {
                sched.finishedAt[c] = 0;
                continue;
            }
            interp::Interpreter &core = sched.add(c, *module_, mem);
            if (e.kind == EpochEntry::Kind::Fresh) {
                if (!firstEpoch)
                    traceResume(c, when, true);
                core.start(threads[c].entry, threads[c].args, sink);
                continue;
            }
            if (e.kind == EpochEntry::Kind::Continue) {
                core.restoreExact(e.exact);
                traceResume(c, when, false);
                continue;
            }
            ResumeStatus st = prepareResume(
                core, e.rp, *e.bundle, *module_, trace_, when,
                boundary_sink, slotImage.empty() ? nullptr : &slotImage);
            if (st == ResumeStatus::SlotFault) {
                ++out.faults.staleSlotsDetected;
                ++out.faults.fullRestarts;
                restartAll();
                return false;
            }
            cwsp_assert(st == ResumeStatus::Resumed,
                        "resume entry cannot need a restart");
            if (e.rp.resumeAfterAtomic)
                ++out.faults.atomicResumes;
        }
        return true;
    };

    while (havePending) {
        // ---- 1. Execute up to the failure at epoch tick pendingDt,
        // on fresh hardware state (power loss empties every volatile
        // structure) over the recovered durable image. The first
        // epoch of a forked sweep restores its checkpoint instead; a
        // pristine single-core start (the first epoch, and every
        // full-restart retry) replays the stream, which commits
        // exactly what interpretation would; anything else
        // interprets.
        reset();
        std::shared_ptr<const RecordingBundle> bundle;
        EpochOutcome eo;
        if (fork && firstEpoch) {
            // The checkpoint's bundle copy stands in for this epoch's
            // recording; battery-backed schemes also need the exact
            // capture-instant memory image (the non-battery crash
            // path reconstructs durable state from the bundle alone).
            bundle = fork->bundle;
            memory_ = fork->memory
                          ? std::make_unique<interp::SparseMemory>(
                                *fork->memory)
                          : std::make_unique<interp::SparseMemory>();
            // reset() rebuilt the tree with identical configuration,
            // so the positional state protocol lines up.
            sim::StateReader r(fork->componentBytes);
            scheme_->restoreState(r);
            hierarchy_->restoreState(r);
            cwsp_assert(r.exhausted(),
                        "checkpoint component bytes mismatch");
            if (trace_ && fork->hasTrace) {
                sim::StateReader tr(fork->traceBytes);
                cwsp_assert(trace_->restoreState(tr),
                            "trace geometry was gated before fork");
            }
            if (sampler_ && fork->hasSampler) {
                sim::StateReader sr(fork->samplerBytes);
                cwsp_assert(sampler_->restoreState(sr),
                            "sampler geometry was gated before fork");
            }
            eo = EpochOutcome{fork->steps, fork->finishedAt,
                              fork->coreReturns, fork->coreFinished,
                              fork->exactSnaps};
        } else {
            memory_ = std::make_unique<interp::SparseMemory>(durable);
            auto rec = std::make_shared<RecordingBundle>();
            bundle = rec;
            scheme_->enableRecording(&rec->stores, &rec->regions,
                                     &rec->io, reserve);
            SnapshotWindow window(*rec, config_);
            if (stream && entries[0].kind == EpochEntry::Kind::Fresh &&
                durableEmpty && slotImage.empty()) {
                if (!firstEpoch)
                    traceResume(0, 0, true);
                StreamCursor cursor(*stream, *memory_, scheme_.get(),
                                    nullptr, &window, max_instrs);
                cursor.advance(pendingDt);
                eo = cursor.outcome();
            } else {
                CoreScheduler sched(n, scheme_.get(), max_instrs);
                RecordingSink sink(*scheme_, window, sched.cores);
                if (!enterCores(sched, *memory_, sink, &sink, 0))
                    continue;
                sched.advance(pendingDt, sink);
                eo = sched.outcome(battery);
            }
            if (!firstEpoch)
                out.reexecutedInstrs += eo.steps;
        }
        ++out.faults.crashesInjected;
        if (!firstEpoch)
            ++out.faults.nestedCrashes;
        if (firstEpoch)
            out.result = collectStats(eo.returns);
        auto noteFirstCrash = [&](const interp::SparseMemory *image) {
            if (!firstEpoch || !captureFirstCrash_)
                return;
            out.hasFirstCrash = true;
            out.firstFullRestart = image == nullptr;
            if (image)
                out.firstDurableImage = *image;
            out.firstStores = bundle->stores;
        };

        // ---- 2. Crash state: what survives, and where each core
        // enters the next epoch.
        std::vector<ReplayStep> replayed; // undo-replay writes applied
        std::uint64_t sliceOps = 0;       // recovery-slice ops to run
        if (battery) {
            // Battery flush (Section II-C): the residual energy
            // drains the redo buffer and persists the execution
            // context, so every committed store, buffered device op,
            // and live register survives the failure. Recovery is an
            // exact continuation after reboot — no undo replay, no
            // region re-execution, no lost work.
            if (trace_) {
                trace_->record(sim::TraceEventKind::CrashInject, 0,
                               pendingDt);
            }
            durable = *memory_;
            durableEmpty = false;
            noteFirstCrash(&durable);
            out.persistedStores += bundle->stores.size();
            out.ioStream.insert(out.ioStream.end(), bundle->io.begin(),
                                bundle->io.end());
            for (std::size_t c = 0; c < n; ++c) {
                const bool running = !eo.finished[c];
                if (firstEpoch) {
                    out.crashed |= running;
                    out.resumeRegions.push_back(
                        running ? scheme_->currentRegion(
                                      static_cast<CoreId>(c))
                                : 0);
                }
                EpochEntry &e = entries[c];
                if (e.kind == EpochEntry::Kind::Done)
                    continue;
                e = EpochEntry{};
                if (running) {
                    e.kind = EpochEntry::Kind::Continue;
                    e.exact = std::move(eo.exact[c]);
                } else {
                    e.kind = EpochEntry::Kind::Done;
                    e.returnValue = eo.returns[c];
                }
            }
        } else {
            // Compute the durable state at this failure, seeding any
            // media faults bound to it.
            CrashComputeOptions copts;
            copts.baseNvm = &durable;
            copts.faults = &faults;
            copts.crashIndex = static_cast<std::uint32_t>(scheduleIdx);
            copts.stats = &out.faults;
            copts.trace = trace_;
            for (const EpochEntry &e : entries) {
                copts.coreDone.push_back(e.kind == EpochEntry::Kind::Done);
                copts.coreResumed.push_back(e.kind ==
                                            EpochEntry::Kind::Resume);
            }
            CrashState cs = computeCrashState(
                pendingDt, bundle->stores, bundle->regions,
                static_cast<std::uint32_t>(n), eo.finishedAt,
                bundle->io, copts);

            if (firstEpoch) {
                // Lost work: instructions committed past each core's
                // resume point.
                for (std::size_t c = 0; c < n; ++c) {
                    const ResumePoint &rp = cs.resume[c];
                    const bool resumes = rp.hasWork && !rp.restart;
                    out.crashed |= rp.hasWork;
                    out.resumeRegions.push_back(resumes ? rp.region : 0);
                    if (rp.hasWork) {
                        out.lostWork +=
                            scheme_->instrs(static_cast<CoreId>(c)) -
                            (resumes ? instrsAtBegin(*bundle, rp.region)
                                     : 0);
                    }
                }
                // Before the fault plan mutates cs.nvm (stale-slot
                // injection below): the checker wants the image
                // recovery actually reconstructed.
                noteFirstCrash(cs.fullRestart ? nullptr : &cs.nvm);
            }

            out.persistedStores += cs.persistedStores;
            out.revertedStores += cs.revertedStores;
            out.ioStream.insert(out.ioStream.end(),
                                cs.releasedIo.begin(),
                                cs.releasedIo.end());

            if (!cs.fullRestart) {
                seedStaleSlots(cs, faults,
                               static_cast<std::uint32_t>(scheduleIdx),
                               bundle->snapshots, *module_, out.faults);
            }

            // Carry the recovered image and each core's next entry.
            if (cs.fullRestart) {
                restartAll();
            } else {
                durable = std::move(cs.nvm);
                durableEmpty = false;
                slotImage = std::move(cs.ckptSlotImage);
                replayed = std::move(cs.replaySteps);
                for (std::size_t c = 0; c < n; ++c) {
                    const ResumePoint &rp = cs.resume[c];
                    EpochEntry &e = entries[c];
                    if (!rp.hasWork) {
                        if (e.kind != EpochEntry::Kind::Done) {
                            e = EpochEntry{};
                            e.kind = EpochEntry::Kind::Done;
                            e.returnValue = eo.returns[c];
                        }
                        continue;
                    }
                    if (rp.restart) {
                        // No boundary committed in this epoch: a core
                        // that entered it by resuming re-resumes at
                        // the previous epoch's point, with its
                        // bundle; any other restarts from entry.
                        if (e.kind != EpochEntry::Kind::Resume)
                            e = EpochEntry{};
                    } else {
                        e = EpochEntry{};
                        e.kind = EpochEntry::Kind::Resume;
                        e.rp = rp;
                        e.bundle = bundle;
                    }
                    if (e.kind == EpochEntry::Kind::Resume) {
                        sliceOps += module_->function(e.rp.func)
                                        .recoverySlices()[e.rp.staticRegion]
                                        .ops.size();
                    }
                }
            }
        }

        // ---- 3. The recovery window: boot, then (undo-log schemes)
        // undo replay and recovery slices. A failure landing inside it
        // re-enters recovery from scratch: rebuild the durable image
        // exactly as the interrupted undo-replay pass left it, run a
        // full second pass over it, and verify it converges to the
        // same image (the protocol's idempotence obligation). With no
        // replay pass (battery flush, full restart) the re-entry is a
        // pure reboot.
        const RecoveryBreakdown rb =
            tileRecoveryWindow(replayed.size(), sliceOps);
        const Tick window = rb.window;
        const Tick crashAt = pendingDt;
        auto nextFailure = [&] {
            ++scheduleIdx;
            havePending = scheduleIdx < schedule.ticks.size();
            pendingDt = havePending ? schedule.ticks[scheduleIdx] : 0;
        };
        nextFailure();
        if (!replayed.empty())
            ++out.faults.undoReplayPasses;
        while (havePending && pendingDt < window) {
            ++out.faults.crashesInjected;
            ++out.faults.nestedCrashes;
            ++out.faults.recoveryCrashes;
            std::size_t k = 0;
            if (!replayed.empty() && pendingDt > kBootCycles) {
                k = std::min(replayed.size(),
                             static_cast<std::size_t>(
                                 (pendingDt - kBootCycles) /
                                 kCyclesPerReplayRecord));
            }
            out.faults.partialReplayRecords += k;
            if (trace_) {
                trace_->record(sim::TraceEventKind::RecoveryReentry, 0,
                               pendingDt, 0, scheduleIdx, k);
            }
            if (!replayed.empty()) {
                interp::SparseMemory partial = durable;
                for (std::size_t i = replayed.size(); i-- > k;)
                    partial.write(replayed[i].addr, replayed[i].before);
                for (const auto &st : replayed)
                    partial.write(st.addr, st.after);
                cwsp_assert(partial.equals(durable),
                            "undo replay is not idempotent across a "
                            "nested failure");
                ++out.faults.undoReplayPasses;
            }
            nextFailure();
        }
        out.recoveryWindows.push_back(window);
        traceRecoveryPhases(trace_, crashAt, rb);
        out.recoveryBreakdowns.push_back(rb);
        if (havePending)
            pendingDt -= window; // epoch-relative crash instant
        firstEpoch = false;
    }

    // ---- 4. Final epoch: recovery and untimed completion on the last
    // recovered image (no further failures scheduled).
    IoLogSink ioSink(out.ioStream);
    CoreScheduler post(n, nullptr, max_instrs);
    while (!enterCores(post, durable, ioSink, nullptr, out.crashTick))
        ;

    // After a single healthy (fault-free) failure on one core, the
    // resumed region re-executes over exactly the memory it saw in
    // the recorded run — every earlier region is fully persisted, and
    // the undo replay reverted every speculative store — so its
    // commits are precisely the recorded stream from the resume
    // region's begin. Apply that suffix instead of re-interpreting
    // it; the recovery slices above already ran, so the recovery
    // accounting and trace events are those of the interpreted path.
    const EpochEntry &e0 = entries[0];
    if (stream && schedule.ticks.size() == 1 && faults.faults.empty() &&
        e0.kind == EpochEntry::Kind::Resume && !e0.rp.restart &&
        !e0.rp.resumeAfterAtomic) {
        // instrsAtBegin counts the boundary commit itself, and the
        // restored control snapshot sits AT the boundary, which
        // therefore re-executes as the first resumed step: the suffix
        // starts one commit earlier.
        const std::uint64_t at_resume =
            instrsAtBegin(*e0.bundle, e0.rp.region);
        cwsp_assert(at_resume > 0, "resume region has no recorded begin");
        StreamCursor tail(*stream, durable, nullptr, &out.ioStream,
                          nullptr, max_instrs);
        tail.seek(at_resume - 1);
        tail.advance(kTickNever);
        out.reexecutedInstrs += tail.steps();
        out.result.returnValues[0] = stream->returnValue;
    } else {
        post.advance(kTickNever, ioSink);
        out.reexecutedInstrs += post.steps;
        // Timing comes from the first epoch, return values from
        // wherever each core finally finished.
        for (std::size_t c = 0; c < n; ++c) {
            out.result.returnValues[c] =
                entries[c].kind == EpochEntry::Kind::Done
                    ? entries[c].returnValue
                    : post.cores[c]->returnValue();
        }
    }
    memory_ = std::make_unique<interp::SparseMemory>(std::move(durable));
    return out;
}

CheckpointRun
WholeSystemSim::captureCheckpoints(
    const std::vector<ThreadSpec> &threads,
    const std::vector<Tick> &ticks, std::uint64_t max_instrs,
    const CommitStream *replay)
{
    cwsp_assert(threads.size() >= 1 &&
                    threads.size() <= config_.numCores,
                "thread count must be in [1, numCores]");
    cwsp_assert(std::is_sorted(ticks.begin(), ticks.end()),
                "crash ticks must be sorted ascending");
    const std::size_t n = threads.size();
    const bool battery = config_.scheme.batteryBacked;
    CheckpointRun out;
    out.checkpoints.reserve(ticks.size());

    // Record exactly as a first crash epoch does (same reserve, same
    // snapshot window), so each prefix is byte-for-byte what that
    // epoch would have recorded.
    reset();
    RecordingBundle bundle;
    scheme_->enableRecording(
        &bundle.stores, &bundle.regions, &bundle.io,
        recordingReserve(expectedInstrs_, replay, max_instrs));
    SnapshotWindow window(bundle, config_);

    // One execution, from the same source a first crash epoch would
    // use, stopped at each tick in turn: a crash epoch stops at its
    // tick the same way, so each stop is that epoch's crash instant.
    const CommitStream *stream =
        usableStream(replay, *module_, config_, threads);
    std::optional<StreamCursor> cursor;
    CoreScheduler sched(n, scheme_.get(), max_instrs);
    RecordingSink sink(*scheme_, window, sched.cores);
    if (stream) {
        cursor.emplace(*stream, *memory_, scheme_.get(), nullptr,
                       &window, max_instrs);
    } else {
        for (std::size_t c = 0; c < n; ++c) {
            sched.add(c, *module_, *memory_)
                .start(threads[c].entry, threads[c].args, sink);
        }
    }
    auto advance = [&](Tick limit) {
        if (cursor) {
            cursor->advance(limit);
            return cursor->outcome();
        }
        sched.advance(limit, sink);
        return sched.outcome(battery);
    };

    for (Tick tick : ticks) {
        EpochOutcome eo = advance(tick);
        auto ck = std::make_shared<SimCheckpoint>();
        ck->module = module_;
        ck->schemeName = config_.scheme.name;
        ck->threads = threads;
        ck->crashTick = tick;
        ck->steps = eo.steps;
        ck->finishedAt = std::move(eo.finishedAt);
        ck->coreReturns = std::move(eo.returns);
        ck->coreFinished = std::move(eo.finished);
        ck->bundle = std::make_shared<RecordingBundle>(bundle);
        sim::StateWriter w(ck->componentBytes);
        scheme_->captureState(w);
        hierarchy_->captureState(w);
        if (trace_) {
            ck->hasTrace = true;
            ck->traceCapacity = trace_->capacity();
            ck->traceMask = trace_->mask();
            sim::StateWriter tw(ck->traceBytes);
            trace_->captureState(tw);
        }
        if (sampler_) {
            ck->hasSampler = true;
            ck->samplerPeriod = sampler_->period();
            ck->samplerTracks = sampler_->trackCount();
            sim::StateWriter sw(ck->samplerBytes);
            sampler_->captureState(sw);
        }
        if (battery) {
            // The battery crash handler reads the live memory and
            // snapshots the execution context of running cores.
            ck->memory = std::make_unique<interp::SparseMemory>(*memory_);
            ck->exactSnaps = std::move(eo.exact);
        }
        out.checkpoints.push_back(std::move(ck));
    }
    out.result = collectStats(advance(kTickNever).returns);
    return out;
}

} // namespace cwsp::core
