#include "sim/stats.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace cwsp {

Histogram::Histogram(std::uint64_t bucket_width, std::size_t buckets)
    : bucketWidth_(bucket_width), counts_(buckets, 0)
{
    cwsp_assert(bucket_width > 0, "histogram bucket width must be > 0");
    cwsp_assert(buckets > 0, "histogram must have at least one bucket");
}

void
Histogram::sample(std::uint64_t v)
{
    std::size_t idx = static_cast<std::size_t>(v / bucketWidth_);
    if (idx >= counts_.size()) {
        idx = counts_.size() - 1;
        ++overflow_;
    }
    ++counts_[idx];
    ++count_;
    max_ = std::max(max_, v);
    sum_ += static_cast<double>(v);
}

double
Histogram::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t
Histogram::percentile(double fraction) const
{
    cwsp_assert(fraction >= 0.0 && fraction <= 1.0,
                "percentile fraction out of range");
    if (count_ == 0)
        return 0;
    // Rank of the answering sample: at least ceil(fraction * count)
    // samples must fall at or below the returned value. fraction = 0
    // asks for zero samples — nothing is below the answer, so 0.
    auto target = static_cast<std::uint64_t>(std::ceil(
        fraction * static_cast<double>(count_)));
    if (target == 0)
        return 0;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        seen += counts_[i];
        if (seen >= target) {
            // The overflow bucket's nominal edge is fabricated by
            // the clamp in sample(); its samples span up to the true
            // maximum, so report that instead of inventing a finite
            // upper bound.
            if (i + 1 == counts_.size())
                return max_;
            // Bucket upper edge, clamped to the largest observed
            // sample (a lone sample of 3 in a width-10 bucket is
            // p100 = 3, not 9).
            std::uint64_t edge = (i + 1) * bucketWidth_ - 1;
            return std::min(edge, max_);
        }
    }
    return max_;
}

void
Histogram::mergeFrom(const Histogram &other)
{
    cwsp_assert(bucketWidth_ == other.bucketWidth_ &&
                    counts_.size() == other.counts_.size(),
                "histogram merge requires identical bucket shape");
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    count_ += other.count_;
    overflow_ += other.overflow_;
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    max_ = 0;
    overflow_ = 0;
    sum_ = 0.0;
}

void
Histogram::captureState(sim::StateWriter &w) const
{
    w.pod(bucketWidth_);
    w.sizedArray(counts_.data(), counts_.size());
    w.pod(count_);
    w.pod(max_);
    w.pod(overflow_);
    w.pod(sum_);
}

void
Histogram::restoreState(sim::StateReader &r)
{
    bucketWidth_ = r.pod<std::uint64_t>();
    counts_.resize(static_cast<std::size_t>(r.count()));
    r.array(counts_.data(), counts_.size());
    count_ = r.pod<std::uint64_t>();
    max_ = r.pod<std::uint64_t>();
    overflow_ = r.pod<std::uint64_t>();
    sum_ = r.pod<double>();
}

StatsRegistry::StatsRegistry(const StatsRegistry &other)
{
    std::lock_guard<std::mutex> lock(other.mutex_);
    counters_ = other.counters_;
    averages_ = other.averages_;
    histograms_ = other.histograms_;
}

StatsRegistry &
StatsRegistry::operator=(const StatsRegistry &other)
{
    if (this == &other)
        return *this;
    // Consistent order: address order avoids deadlock if two
    // registries assign to each other concurrently.
    std::lock(mutex_, other.mutex_);
    std::lock_guard<std::mutex> l1(mutex_, std::adopt_lock);
    std::lock_guard<std::mutex> l2(other.mutex_, std::adopt_lock);
    counters_ = other.counters_;
    averages_ = other.averages_;
    histograms_ = other.histograms_;
    return *this;
}

Counter &
StatsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Average &
StatsRegistry::average(const std::string &name)
{
    return averages_[name];
}

Histogram &
StatsRegistry::histogram(const std::string &name,
                         std::uint64_t bucket_width, std::size_t buckets)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, Histogram(bucket_width, buckets))
                 .first;
    }
    return it->second;
}

std::uint64_t
StatsRegistry::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

double
StatsRegistry::averageValue(const std::string &name) const
{
    auto it = averages_.find(name);
    return it == averages_.end() ? 0.0 : it->second.mean();
}

void
StatsRegistry::dump(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : counters_)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, a] : averages_)
        os << name << " " << a.mean() << " (n=" << a.count() << ")\n";
    for (const auto &[name, h] : histograms_) {
        os << name << " mean=" << h.mean() << " n=" << h.count()
           << " p99=" << h.percentile(0.99) << "\n";
    }
}

namespace {

/** Tree node of the hierarchical export: a leaf writer or children. */
struct JsonNode
{
    std::function<void(json::Writer &)> leaf; ///< empty = no leaf
    std::map<std::string, JsonNode> children;
};

void
insertNode(JsonNode &root, const std::string &name,
           std::function<void(json::Writer &)> leaf)
{
    JsonNode *node = &root;
    std::size_t pos = 0;
    while (true) {
        std::size_t dot = name.find('.', pos);
        if (dot == std::string::npos) {
            node = &node->children[name.substr(pos)];
            break;
        }
        node = &node->children[name.substr(pos, dot - pos)];
        pos = dot + 1;
    }
    if (!node->children.empty()) {
        // "a.b" exists and now "a.b.c" made it an interior node (or
        // vice versa): keep the scalar under "self".
        node->children["self"].leaf = std::move(leaf);
    } else {
        node->leaf = std::move(leaf);
    }
}

void
writeNode(json::Writer &w, const JsonNode &node)
{
    if (node.children.empty()) {
        node.leaf(w); // every childless node holds a statistic
        return;
    }
    w.beginObject();
    if (node.leaf) {
        w.key("self");
        node.leaf(w);
    }
    for (const auto &[key, child] : node.children) {
        w.key(key);
        writeNode(w, child);
    }
    w.end();
}

void
writeHistogram(json::Writer &w, const Histogram &h)
{
    w.beginObject().field("count", h.count()).field("mean", h.mean());
    w.field("p50", h.percentile(0.50)).field("p95", h.percentile(0.95));
    w.field("p99", h.percentile(0.99)).field("max", h.maxSample());
    w.field("overflow", h.overflow());
    w.field("bucket_width", h.bucketWidth()).key("buckets").beginArray();
    // Trailing zero buckets carry no information; trim them.
    const auto &b = h.buckets();
    std::size_t last = b.size();
    while (last > 0 && b[last - 1] == 0)
        --last;
    for (std::size_t i = 0; i < last; ++i)
        w.value(b[i]);
    w.end().end();
}

} // namespace

void
StatsRegistry::exportJson(std::ostream &os) const
{
    json::Writer w(os);
    w.beginObject();
    exportJsonMembers(w);
    w.end();
}

void
StatsRegistry::exportJsonMembers(json::Writer &w) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonNode root;
    for (const auto &[name, c] : counters_)
        insertNode(root, name,
                   [&c](json::Writer &out) { out.value(c.value()); });
    for (const auto &[name, a] : averages_) {
        insertNode(root, name, [&a](json::Writer &out) {
            out.beginObject().field("mean", a.mean());
            out.field("count", a.count()).field("sum", a.sum()).end();
        });
    }
    for (const auto &[name, h] : histograms_) {
        insertNode(root, name,
                   [&h](json::Writer &out) { writeHistogram(out, h); });
    }
    for (const auto &[key, child] : root.children) {
        w.key(key);
        writeNode(w, child);
    }
}

void
StatsRegistry::mergeFrom(const StatsRegistry &other)
{
    if (this == &other)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, c] : other.counters_)
        counters_[name].mergeFrom(c);
    for (const auto &[name, a] : other.averages_)
        averages_[name].mergeFrom(a);
    for (const auto &[name, h] : other.histograms_) {
        auto it = histograms_.find(name);
        if (it == histograms_.end())
            histograms_.emplace(name, h); // adopt shape and contents
        else
            it->second.mergeFrom(h);
    }
}

void
StatsRegistry::resetAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c.reset();
    for (auto &[name, a] : averages_)
        a.reset();
    for (auto &[name, h] : histograms_)
        h.reset();
}

} // namespace cwsp
