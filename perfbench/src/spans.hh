/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span is
 * one call into a simulator layer, recorded from the benchmark's own
 * code around the public entry point of that layer: name, start, end,
 * the enclosing span on the same thread, and the op it belongs to.
 * Spans stay in per-thread buffers until collect(); nothing is written
 * while the run is timed.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded call. Times are steady_clock nanoseconds. */
struct Span
{
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    /** Index of the enclosing span in the same vector; -1 = root. */
    std::int64_t parent = -1;
    /** Op (design point or campaign case) the span served. */
    std::uint64_t op = 0;
    /** Recording thread, numbered in registration order. */
    std::uint32_t thread = 0;
};

/** Monotonic nanoseconds. */
std::int64_t nowNs();

struct Buffer; // one thread's spans (spans.cc)

/**
 * Thread-safe span recorder. Each thread appends to its own buffer;
 * collect() merges them into one vector with global parent indices.
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Records one span for the lifetime of the object. */
    class Scope
    {
      public:
        /** @p tracer null records nothing (the untraced path). */
        Scope(Tracer *tracer, const char *name, std::uint64_t op);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Buffer *buf_ = nullptr;
    };

    /** All spans recorded so far, thread buffers concatenated. */
    std::vector<Span> collect() const;

  private:
    Buffer *bufferForThisThread();

    const std::uint64_t id_;
    mutable std::mutex mu_; ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** Per-span self time: duration minus the union of its children. */
std::vector<std::int64_t> selfTimes(const std::vector<Span> &spans);

/** Per-layer split of a traced phase. */
struct LayerSplit
{
    /** Self time per span name in @p layers, nanoseconds. */
    std::map<std::string, std::int64_t> selfNs;
    /** Inclusive time per span name (sum of durations). */
    std::map<std::string, std::int64_t> totalNs;
    /** Calls per span name. */
    std::map<std::string, std::uint64_t> calls;
    /**
     * Budget time not in any layer's self time: thread time outside
     * every root span plus the self time of non-layer spans.
     */
    std::int64_t unattributedNs = 0;
    /** The budget the split covers (threads x phase wall time). */
    std::int64_t budgetNs = 0;
};

/**
 * Split @p budget_ns of thread time across @p layers. Spans whose name
 * is not a layer (the per-op root span) count as unattributed, as does
 * budget time outside every root span, so that the layers' self times
 * plus unattributedNs equal @p budget_ns exactly.
 */
LayerSplit splitLayers(const std::vector<Span> &spans,
                       const std::vector<std::string> &layers,
                       std::int64_t budget_ns);

/** Write @p spans as one JSON object per line. */
void writeSpans(std::ostream &os, const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
