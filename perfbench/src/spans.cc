#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace perfbench {

struct Buffer
{
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<std::int64_t> open; ///< indices of unfinished spans
};

namespace {

std::atomic<std::uint64_t> nextTracerId{1};

/** This thread's buffer and the tracer that owns it. */
thread_local std::uint64_t tlsTracer = 0;
thread_local Buffer *tlsBuffer = nullptr;

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer::Tracer() : id_(nextTracerId.fetch_add(1)) {}

Tracer::~Tracer() = default;

Buffer *
Tracer::bufferForThisThread()
{
    if (tlsTracer == id_)
        return tlsBuffer;
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread =
        static_cast<std::uint32_t>(buffers_.size() - 1);
    buffers_.back()->spans.reserve(1024);
    tlsTracer = id_;
    tlsBuffer = buffers_.back().get();
    return tlsBuffer;
}

Tracer::Scope::Scope(Tracer *tracer, const char *name, std::uint64_t op)
{
    if (!tracer)
        return;
    buf_ = tracer->bufferForThisThread();
    Span s;
    s.name = name;
    s.op = op;
    s.thread = buf_->thread;
    s.parent = buf_->open.empty() ? -1 : buf_->open.back();
    buf_->open.push_back(static_cast<std::int64_t>(buf_->spans.size()));
    s.start = nowNs();
    buf_->spans.push_back(std::move(s));
}

Tracer::Scope::~Scope()
{
    if (!buf_)
        return;
    buf_->spans[static_cast<std::size_t>(buf_->open.back())].end =
        nowNs();
    buf_->open.pop_back();
}

std::vector<Span>
Tracer::collect() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> all;
    for (const auto &b : buffers_) {
        const auto base = static_cast<std::int64_t>(all.size());
        for (Span s : b->spans) {
            if (s.parent >= 0)
                s.parent += base;
            all.push_back(std::move(s));
        }
    }
    return all;
}

std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the parent.
        std::int64_t covered = 0;
        std::int64_t curLo = 0, curHi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, p.start);
            hi = std::min(hi, p.end);
            if (hi <= lo)
                continue;
            if (open && lo <= curHi) {
                curHi = std::max(curHi, hi);
                continue;
            }
            if (open)
                covered += curHi - curLo;
            curLo = lo;
            curHi = hi;
            open = true;
        }
        if (open)
            covered += curHi - curLo;
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

LayerSplit
splitLayers(const std::vector<Span> &spans,
            const std::vector<std::string> &layers, std::int64_t budget_ns)
{
    LayerSplit out;
    out.budgetNs = budget_ns;
    for (const auto &l : layers) {
        out.selfNs[l] = 0;
        out.totalNs[l] = 0;
        out.calls[l] = 0;
    }
    const auto self = selfTimes(spans);
    std::int64_t rootNs = 0;
    std::int64_t nonLayerSelf = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        if (s.parent < 0)
            rootNs += s.end - s.start;
        auto it = out.selfNs.find(s.name);
        if (it == out.selfNs.end()) {
            nonLayerSelf += self[i];
            continue;
        }
        it->second += self[i];
        out.totalNs[s.name] += s.end - s.start;
        ++out.calls[s.name];
    }
    out.unattributedNs = (budget_ns - rootNs) + nonLayerSelf;
    return out;
}

void
writeSpans(std::ostream &os, const std::vector<Span> &spans)
{
    for (const Span &s : spans) {
        os << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
           << ",\"end\":" << s.end << ",\"parent\":" << s.parent
           << ",\"op\":" << s.op << ",\"thread\":" << s.thread << "}\n";
    }
}

} // namespace perfbench
