#include "sim/trace.hh"

#include <algorithm>
#include <set>

#include "sim/json.hh"
#include "sim/telemetry.hh"

namespace cwsp::sim {

namespace {

std::uint64_t
roundUpPow2(std::uint64_t v)
{
    if (v < 2)
        return 2;
    --v;
    for (unsigned s = 1; s < 64; s <<= 1)
        v |= v >> s;
    return v + 1;
}

struct CategoryName
{
    const char *name;
    TraceCategory category;
};

constexpr CategoryName kCategoryNames[] = {
    {"region", kTraceRegion}, {"pb", kTracePb},
    {"rbt", kTraceRbt},       {"wpq", kTraceWpq},
    {"mc", kTraceMc},         {"wb", kTraceWb},
    {"path", kTracePath},     {"crash", kTraceCrash},
};

} // namespace

const char *
stallCauseName(StallCause cause)
{
    switch (cause) {
      case StallCause::PbFull: return "pb_full";
      case StallCause::WpqFull: return "wpq_full";
      case StallCause::PathBandwidth: return "path_bw";
      case StallCause::RbtFull: return "rbt_full";
      case StallCause::McUndoLog: return "mc_undo_log";
    }
    return "?";
}

const char *
traceCategoryName(TraceCategory category)
{
    for (const auto &cn : kCategoryNames) {
        if (cn.category == category)
            return cn.name;
    }
    return "?";
}

const char *
traceKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::RegionBegin: return "region_begin";
      case TraceEventKind::RegionEnd: return "region_end";
      case TraceEventKind::RegionPersist: return "region_persist";
      case TraceEventKind::SchemeDrain: return "scheme_drain";
      case TraceEventKind::RsPointerWrite: return "rs_pointer_write";
      case TraceEventKind::PbEnqueue: return "pb_enqueue";
      case TraceEventKind::PbDrain: return "pb_drain";
      case TraceEventKind::PbStall: return "pb_stall";
      case TraceEventKind::RbtAlloc: return "rbt_alloc";
      case TraceEventKind::RbtRetire: return "rbt_retire";
      case TraceEventKind::RbtStall: return "rbt_stall";
      case TraceEventKind::WpqAdmit: return "wpq_admit";
      case TraceEventKind::WpqHit: return "wpq_hit";
      case TraceEventKind::WpqFull: return "wpq_full";
      case TraceEventKind::UndoAppend: return "undo_append";
      case TraceEventKind::UndoRollback: return "undo_rollback";
      case TraceEventKind::WbPersistDelay:
        return "wb_persist_delay";
      case TraceEventKind::PathSend: return "path_send";
      case TraceEventKind::CrashInject: return "crash_inject";
      case TraceEventKind::RecoverySlice: return "recovery_slice";
      case TraceEventKind::RecoveryResume: return "recovery_resume";
      case TraceEventKind::LogFault: return "log_fault";
      case TraceEventKind::RecoveryReentry:
        return "recovery_reentry";
      case TraceEventKind::RecoveryPhase: return "recovery_phase";
      case TraceEventKind::AtomicCommit: return "atomic_commit";
    }
    return "?";
}

namespace {

/** Per-kind names of arg0/arg1 in the exported JSON (args block). */
void
argNames(TraceEventKind kind, const char *&a0, const char *&a1)
{
    a0 = nullptr;
    a1 = nullptr;
    switch (kind) {
      case TraceEventKind::RegionBegin:
        a0 = "region";
        a1 = "static_region";
        break;
      case TraceEventKind::RegionEnd:
      case TraceEventKind::RegionPersist:
      case TraceEventKind::RbtRetire:
        a0 = "region";
        break;
      case TraceEventKind::RbtAlloc:
        a0 = "region";
        a1 = "occupancy";
        break;
      case TraceEventKind::PbEnqueue:
      case TraceEventKind::PbDrain:
        a0 = "occupancy";
        break;
      case TraceEventKind::WpqHit:
        a0 = "addr";
        a1 = "extra_cycles";
        break;
      case TraceEventKind::UndoAppend:
        a0 = "addr";
        break;
      case TraceEventKind::UndoRollback:
      case TraceEventKind::AtomicCommit:
        a0 = "addr";
        a1 = "region";
        break;
      case TraceEventKind::WbPersistDelay:
        a0 = "line";
        break;
      case TraceEventKind::PathSend:
        a0 = "bytes";
        a1 = "mc";
        break;
      case TraceEventKind::RecoverySlice:
        a0 = "ops";
        a1 = "static_region";
        break;
      case TraceEventKind::RecoveryResume:
        a0 = "region";
        a1 = "restart";
        break;
      case TraceEventKind::LogFault:
        a0 = "seq";
        a1 = "action";
        break;
      case TraceEventKind::RecoveryReentry:
        a0 = "crash";
        a1 = "replayed";
        break;
      case TraceEventKind::RecoveryPhase:
        a0 = "phase";
        a1 = "items";
        break;
      case TraceEventKind::RsPointerWrite:
      case TraceEventKind::CrashInject:
        break;
      case TraceEventKind::WpqAdmit:
      case TraceEventKind::SchemeDrain:
      case TraceEventKind::PbStall:
      case TraceEventKind::RbtStall:
      case TraceEventKind::WpqFull:
        // Decoded args; writeEventArgs() handles these.
        break;
    }
}

/** Args block for kinds whose raw arg slots need decoding. */
bool
writeEventArgs(json::Writer &w, const TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::WpqAdmit:
        w.field("addr", ev.arg0)
            .field("bytes", wpqAdmitBytes(ev.arg1))
            .field("logged", wpqAdmitLogged(ev.arg1) ? 1 : 0);
        return true;
      case TraceEventKind::SchemeDrain:
        w.field("stores", ev.arg0)
            .field("cause",
                   stallCauseName(static_cast<StallCause>(ev.arg1)));
        return true;
      case TraceEventKind::PbStall:
      case TraceEventKind::RbtStall:
      case TraceEventKind::WpqFull:
        w.field("cause",
                stallCauseName(static_cast<StallCause>(ev.arg0)));
        return true;
      default:
        return false;
    }
}

} // namespace

TraceBuffer::TraceBuffer(std::size_t capacity, std::uint32_t mask)
    : slots_(roundUpPow2(capacity)), capMask_(slots_.size() - 1),
      mask_(mask)
{
}

void
TraceBuffer::captureState(StateWriter &w) const
{
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t n = std::min<std::uint64_t>(h, slots_.size());
    w.pod<std::uint64_t>(slots_.size());
    w.pod(mask_);
    w.pod(h);
    w.pod(n);
    for (std::uint64_t i = h - n; i < h; ++i)
        w.pod(slots_[i & capMask_]);
}

bool
TraceBuffer::restoreState(StateReader &r)
{
    auto cap = r.pod<std::uint64_t>();
    auto mask = r.pod<std::uint32_t>();
    auto h = r.pod<std::uint64_t>();
    auto n = r.pod<std::uint64_t>();
    if (cap != slots_.size() || mask != mask_) {
        // Incompatible ring: skip past the window so the reader stays
        // positionally consistent for any state that follows.
        for (std::uint64_t i = 0; i < n; ++i)
            (void)r.pod<TraceEvent>();
        return false;
    }
    for (std::uint64_t i = h - n; i < h; ++i)
        slots_[i & capMask_] = r.pod<TraceEvent>();
    head_.store(h, std::memory_order_relaxed);
    return true;
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::uint64_t h = head_.load(std::memory_order_relaxed);
    std::uint64_t n = std::min<std::uint64_t>(h, slots_.size());
    std::vector<TraceEvent> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = h - n; i < h; ++i)
        out.push_back(slots_[i & capMask_]);
    return out;
}

void
TraceBuffer::exportChromeJson(std::ostream &os,
                              const CounterSampler *sampler) const
{
    auto events = snapshot();
    // Chrome/Perfetto tolerate unsorted events but sorting keeps the
    // output diffable and the JSON stream friendlier to stream
    // parsers.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return a.tick < b.tick;
                     });

    json::Writer w(os);
    w.beginObject().field("displayTimeUnit", "ns").key("traceEvents");
    w.beginArray();

    // Process + per-lane metadata. thread_sort_index mirrors the
    // lane number, so Perfetto shows cores (0..) above MCs (256..)
    // instead of in first-event order.
    auto meta = [&w](const char *name, const std::uint16_t *tid,
                     const char *arg, const auto &value) {
        w.beginObject().field("name", name).field("ph", "M");
        w.field("pid", 0);
        if (tid)
            w.field("tid", *tid);
        w.key("args").beginObject().field(arg, value).end().end();
    };
    meta("process_name", nullptr, "name", "cwsp sim");
    meta("process_sort_index", nullptr, "sort_index", 0);
    std::set<std::uint16_t> lanes;
    for (const auto &ev : events)
        lanes.insert(ev.lane);
    if (sampler) {
        for (std::size_t t = 0; t < sampler->trackCount(); ++t)
            lanes.insert(sampler->track(t).lane);
    }
    for (const std::uint16_t &lane : lanes) {
        meta("thread_name", &lane, "name",
             lane >= kMcLaneBase
                 ? "mc" + std::to_string(lane - kMcLaneBase)
                 : "core" + std::to_string(lane));
        meta("thread_sort_index", &lane, "sort_index", lane);
    }

    Tick last_tick = 0;
    for (const auto &ev : events) {
        last_tick = std::max(last_tick, ev.tick);
        w.beginObject().field("name", traceKindName(ev.kind));
        w.field("cat", traceCategoryName(traceKindCategory(ev.kind)));
        w.field("pid", 0).field("tid", ev.lane).field("ts", ev.tick);
        if (ev.duration > 0)
            w.field("ph", "X").field("dur", ev.duration);
        else
            w.field("ph", "i").field("s", "t");
        w.key("args").beginObject();
        if (!writeEventArgs(w, ev)) {
            const char *a0 = nullptr;
            const char *a1 = nullptr;
            argNames(ev.kind, a0, a1);
            if (a0)
                w.field(a0, ev.arg0);
            if (a1)
                w.field(a1, ev.arg1);
        }
        w.end().end();
    }

    // Sampled time series as Perfetto counter tracks: one "ph":"C"
    // series per track, in sample order (monotone ts per counter
    // name by construction).
    if (sampler) {
        const auto &ticks = sampler->sampleTicks();
        if (!ticks.empty())
            last_tick = std::max(last_tick, ticks.back());
        for (std::size_t t = 0; t < sampler->trackCount(); ++t) {
            const auto &track = sampler->track(t);
            for (std::size_t i = 0; i < ticks.size(); ++i) {
                w.beginObject().field("name", track.name);
                w.field("cat", "telemetry").field("ph", "C");
                w.field("pid", 0).field("tid", track.lane);
                w.field("ts", ticks[i]).key("args").beginObject();
                w.field("value", track.values[i]).end().end();
            }
        }
    }

    // Trailing counter track makes ring truncation visible in the
    // Perfetto UI itself, not just in otherData/stderr.
    w.beginObject().field("name", "trace_drops").field("ph", "C");
    w.field("pid", 0).field("tid", 0).field("ts", last_tick);
    w.key("args").beginObject().field("dropped", dropped()).end();
    w.end().end().key("otherData").beginObject();
    w.field("recorded", recorded()).field("dropped", dropped());
    w.end().end();
}

} // namespace cwsp::sim
