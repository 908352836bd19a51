#include "obs/baseline_diff.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "sim/json.hh"

namespace cwsp::obs {

namespace {

/**
 * The "name" member of the object whose ObjectBegin @p r (a copy of
 * the walker's reader) just read, or "" when it has no string one.
 */
std::string
peekName(json::Reader r)
{
    std::string name;
    r.forEachMember([&](const std::string &key, json::Token v) {
        if (name.empty() && key == "name" && v == json::Token::String)
            name = r.text();
    });
    return name;
}

bool
ignored(const std::string &metric, const DiffOptions &options)
{
    for (const auto &sub : options.ignoreSubstrings) {
        if (!sub.empty() && metric.find(sub) != std::string::npos)
            return true;
    }
    return false;
}

/** Magnitude of relative change, for sorting reports. */
double
changeMagnitude(const MetricDelta &d)
{
    if (d.before == 0.0 || d.after == 0.0 ||
        !std::isfinite(d.ratio)) {
        return std::numeric_limits<double>::infinity();
    }
    return std::fabs(std::log(d.ratio));
}

} // namespace

MetricMap
flattenMetricsJson(const std::string &text)
{
    struct Level
    {
        std::string path;
        bool array;
        std::size_t index;
    };
    MetricMap out;
    json::Reader r(text);
    std::vector<Level> levels;
    std::string member; // path of the object member read next
    for (auto t = r.next(); t != json::Token::End; t = r.next()) {
        if (t == json::Token::Key) {
            const std::string &prefix = levels.back().path;
            member = prefix.empty() ? r.text() : prefix + "." + r.text();
            continue;
        }
        if (t == json::Token::ObjectEnd || t == json::Token::ArrayEnd) {
            levels.pop_back();
            continue;
        }
        std::string path = levels.empty() ? "" : member;
        if (!levels.empty() && levels.back().array) {
            // Array entries key by their "name" member when they
            // have one (the google-benchmark convention), else by
            // index.
            Level &a = levels.back();
            std::string name =
                t == json::Token::ObjectBegin ? peekName(r) : "";
            path = a.path + "[" +
                   (name.empty() ? std::to_string(a.index) : name) +
                   "]";
            ++a.index;
        }
        if (t == json::Token::ObjectBegin || t == json::Token::ArrayBegin)
            levels.push_back({std::move(path),
                              t == json::Token::ArrayBegin, 0});
        else if (t == json::Token::Number)
            out[path] = r.number();
    }
    return out;
}

DiffResult
diffMetrics(const MetricMap &before, const MetricMap &after,
            const DiffOptions &options)
{
    DiffResult result;
    for (const auto &[metric, old_value] : before) {
        auto it = after.find(metric);
        if (it == after.end()) {
            if (!ignored(metric, options))
                result.onlyBefore.push_back(metric);
            continue;
        }
        if (ignored(metric, options)) {
            ++result.ignored;
            continue;
        }
        ++result.compared;
        double new_value = it->second;
        MetricDelta delta{metric, old_value, new_value, 1.0};
        if (old_value == new_value)
            continue;
        if (old_value == 0.0) {
            delta.ratio =
                std::numeric_limits<double>::infinity();
            result.regressions.push_back(delta);
            continue;
        }
        delta.ratio = new_value / old_value;
        if (delta.ratio > 1.0 + options.threshold)
            result.regressions.push_back(delta);
        else if (delta.ratio < 1.0 - options.threshold)
            result.improvements.push_back(delta);
    }
    for (const auto &[metric, value] : after) {
        (void)value;
        if (!before.count(metric) && !ignored(metric, options))
            result.onlyAfter.push_back(metric);
    }

    auto by_magnitude = [](const MetricDelta &a,
                           const MetricDelta &b) {
        double ma = changeMagnitude(a);
        double mb = changeMagnitude(b);
        if (ma != mb)
            return ma > mb;
        return a.metric < b.metric;
    };
    std::sort(result.regressions.begin(), result.regressions.end(),
              by_magnitude);
    std::sort(result.improvements.begin(),
              result.improvements.end(), by_magnitude);
    return result;
}

namespace {

/**
 * Canonical trajectory key: strip a leading "binaries[<name>]."
 * container prefix. Summaries nest each bench binary's report under
 * binaries[] while older (and single-binary) summaries are flat;
 * normalizing on append keeps one metric one key across PRs, so the
 * ci_check floor and --diff over trajectory files line up entries
 * regardless of which summary shape produced them.
 */
std::string
normalizeTrajectoryKey(const std::string &metric)
{
    constexpr const char *kPrefix = "binaries[";
    if (metric.compare(0, std::strlen(kPrefix), kPrefix) != 0)
        return metric;
    std::size_t close = metric.find("].");
    if (close == std::string::npos)
        return metric;
    return metric.substr(close + 2);
}

} // namespace

bool
appendTrajectory(const std::string &trajectory_path,
                 const std::string &summary_path,
                 const TrajectoryOptions &options, std::string &error)
{
    auto slurp = [](const std::string &path, std::string &out) {
        std::ifstream is(path);
        std::ostringstream ss;
        ss << is.rdbuf();
        out = ss.str();
        return bool(is);
    };
    std::string summary;
    if (!slurp(summary_path, summary)) {
        error = "cannot open " + summary_path;
        return false;
    }
    MetricMap metrics;
    try {
        metrics = flattenMetricsJson(summary);
    } catch (const std::exception &ex) {
        error = summary_path + ": " + ex.what();
        return false;
    }

    // Select, then normalize: the normalized keys re-sort (and would
    // collide if two binaries exported the same benchmark — first
    // one wins, deterministically by source key order).
    std::map<std::string, double> kept;
    for (const auto &[metric, value] : metrics) {
        bool keep = false;
        for (const auto &sub : options.keepSubstrings) {
            if (!sub.empty() &&
                metric.find(sub) != std::string::npos) {
                keep = true;
                break;
            }
        }
        if (keep)
            kept.emplace(normalizeTrajectoryKey(metric), value);
    }
    // The label is serialized as "name" so flattenMetricsJson (and
    // therefore --diff over two trajectory files) keys each entry by
    // its label instead of its array position.
    std::ostringstream entry;
    entry << ' ';
    json::Writer w(entry, 1);
    w.beginObject(json::lines(1)).field("name", options.label);
    if (!options.date.empty())
        w.field("date", options.date);
    w.key("metrics").beginObject(json::lines(1));
    for (const auto &[metric, value] : kept)
        w.field(metric, value);
    w.end().end();

    // Splice into the existing array without a full parse: the file
    // is only ever written by this function, so the closing ']' as
    // the last non-whitespace byte is a structural invariant.
    std::string existing;
    slurp(trajectory_path, existing); // absent: start a new array
    std::string body;
    std::size_t end = existing.find_last_not_of(" \t\r\n");
    if (end == std::string::npos) {
        body = "[\n" + entry.str() + "\n]\n";
    } else {
        if (existing[end] != ']') {
            error = trajectory_path +
                    ": not a JSON array (refusing to append)";
            return false;
        }
        std::string head = existing.substr(0, end);
        // Empty array vs one with entries: comma only for the latter.
        std::size_t last = head.find_last_not_of(" \t\r\n");
        bool empty =
            last == std::string::npos || head[last] == '[';
        body = head + (empty ? "\n" : ",\n") + entry.str() + "\n]\n";
    }
    std::ofstream os(trajectory_path, std::ios::trunc);
    if (!os) {
        error = "cannot write " + trajectory_path;
        return false;
    }
    os << body;
    if (!os) {
        error = "write to " + trajectory_path + " failed";
        return false;
    }
    return true;
}

void
printDiffReport(std::ostream &os, const DiffResult &result,
                const DiffOptions &options)
{
    constexpr std::size_t kMaxListed = 20;
    os << "compared " << result.compared << " metrics (threshold "
       << options.threshold * 100.0 << "%, ignored "
       << result.ignored << ")\n";

    auto print_list = [&os, kMaxListed](const char *label,
                            const std::vector<MetricDelta> &list) {
        os << label << ": " << list.size() << "\n";
        std::size_t shown = std::min(list.size(), kMaxListed);
        for (std::size_t i = 0; i < shown; ++i) {
            const auto &d = list[i];
            os << "  " << d.metric << ": " << d.before << " -> "
               << d.after;
            if (std::isfinite(d.ratio)) {
                auto prec = os.precision();
                os << " (" << std::showpos << std::fixed
                   << std::setprecision(1) << (d.ratio - 1.0) * 100.0
                   << "%)" << std::noshowpos << std::defaultfloat
                   << std::setprecision(prec);
            } else {
                os << " (was zero)";
            }
            os << "\n";
        }
        if (list.size() > shown) {
            os << "  ... " << list.size() - shown << " more\n";
        }
    };
    print_list("regressions", result.regressions);
    print_list("improvements", result.improvements);
    if (!result.onlyBefore.empty()) {
        os << "metrics only in baseline: " << result.onlyBefore.size()
           << "\n";
    }
    if (!result.onlyAfter.empty()) {
        os << "metrics only in current: " << result.onlyAfter.size()
           << "\n";
    }
}

} // namespace cwsp::obs
