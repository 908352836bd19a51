#include "obs/recovery_report.hh"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/config.hh"
#include "obs/baseline_diff.hh"

namespace cwsp::obs {

namespace {

/** Markdown/JSON labels per phase, core::RecoveryPhase order. */
constexpr const char *kPhaseKeys[kReportPhases] = {
    "detect", "scan", "undo_replay", "slice_reexec", "resume"};

/** Figure order for known schemes; unknown ones sort after. */
int
schemeRank(const std::string &s)
{
    const auto &order = core::schemeNames();
    return static_cast<int>(std::find(order.begin(), order.end(), s) -
                            order.begin());
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
formatNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

/**
 * Split a flattened "recovery" metric path into (scheme, field).
 * Accepts both the campaign-JSON shape (recovery[cwsp].latency.mean
 * — array entries keyed by their "name" member, bracket appended
 * without a dot) and the stats-registry shape
 * (recovery.cwsp.latency.mean). Returns false for paths that are not
 * per-scheme recovery metrics.
 */
bool
splitRecoveryKey(const std::string &metric, std::string &scheme,
                 std::string &field)
{
    if (metric.compare(0, 9, "recovery.") == 0) {
        std::string rest = metric.substr(9);
        std::size_t dot = rest.find('.');
        if (dot == std::string::npos)
            return false;
        scheme = rest.substr(0, dot);
        field = rest.substr(dot + 1);
        return !scheme.empty() && !field.empty();
    }
    if (metric.compare(0, 9, "recovery[") == 0) {
        std::size_t close = metric.find("].", 9);
        if (close == std::string::npos)
            return false;
        scheme = metric.substr(9, close - 9);
        field = metric.substr(close + 2);
        return !scheme.empty() && !field.empty();
    }
    return false;
}

} // namespace

bool
buildRecoveryReport(const std::string &campaign_json,
                    RecoveryReport &out, std::string &error)
{
    std::map<std::string, double> metrics;
    try {
        metrics = flattenMetricsJson(campaign_json);
    } catch (const std::exception &ex) {
        error = ex.what();
        return false;
    }

    std::map<std::string, RecoveryParetoRow> rows;
    for (const auto &[metric, value] : metrics) {
        std::string scheme;
        std::string field;
        if (!splitRecoveryKey(metric, scheme, field))
            continue;
        RecoveryParetoRow &row = rows[scheme];
        row.scheme = scheme;
        if (field == "crashes") {
            row.crashes = static_cast<std::uint64_t>(value);
        } else if (field == "latency.mean") {
            row.meanRecoveryCycles = value;
        } else if (field == "latency.max") {
            row.maxRecoveryCycles = value;
        } else if (field == "lost_work.mean") {
            row.meanLostWork = value;
        } else if (field == "runtime_overhead" ||
                   field == "runtime_overhead.mean") {
            row.runtimeOverhead = value;
        } else {
            for (std::size_t p = 0; p < kReportPhases; ++p) {
                if (field ==
                    std::string("phases.") + kPhaseKeys[p]) {
                    row.phaseCycles[p] = value;
                    break;
                }
            }
        }
    }
    if (rows.empty()) {
        error = "no per-scheme recovery section found (run "
                "cwsp_faultcampaign --json first)";
        return false;
    }

    out.rows.clear();
    for (auto &[scheme, row] : rows) {
        (void)scheme;
        out.rows.push_back(std::move(row));
    }
    std::sort(out.rows.begin(), out.rows.end(),
              [](const RecoveryParetoRow &a,
                 const RecoveryParetoRow &b) {
                  int ra = schemeRank(a.scheme);
                  int rb = schemeRank(b.scheme);
                  if (ra != rb)
                      return ra < rb;
                  return a.scheme < b.scheme;
              });

    // Pareto frontier over (mean recovery latency, runtime
    // overhead): a row is dominated when another row is no worse on
    // both axes and strictly better on one. Rows missing either
    // measurement — no overhead baseline, or zero observed crashes
    // (a latency mean of 0 would dominate vacuously) — stay out of
    // the comparison entirely.
    auto measured = [](const RecoveryParetoRow &r) {
        return r.runtimeOverhead > 0.0 && r.crashes > 0;
    };
    for (auto &row : out.rows) {
        row.dominated = false;
        if (!measured(row))
            continue;
        for (const auto &other : out.rows) {
            if (&other == &row || !measured(other))
                continue;
            bool noWorse =
                other.meanRecoveryCycles <=
                    row.meanRecoveryCycles &&
                other.runtimeOverhead <= row.runtimeOverhead;
            bool strictlyBetter =
                other.meanRecoveryCycles <
                    row.meanRecoveryCycles ||
                other.runtimeOverhead < row.runtimeOverhead;
            if (noWorse && strictlyBetter) {
                row.dominated = true;
                break;
            }
        }
    }
    return true;
}

void
writeRecoveryReportJson(std::ostream &os,
                        const RecoveryReport &report)
{
    os << "{\n  \"schemes\": [";
    for (std::size_t i = 0; i < report.rows.size(); ++i) {
        const RecoveryParetoRow &r = report.rows[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << jsonEscape(r.scheme)
           << "\", \"crashes\": " << r.crashes
           << ", \"mean_recovery_cycles\": "
           << formatNumber(r.meanRecoveryCycles)
           << ", \"max_recovery_cycles\": "
           << formatNumber(r.maxRecoveryCycles)
           << ", \"mean_lost_work\": "
           << formatNumber(r.meanLostWork)
           << ", \"runtime_overhead\": "
           << formatNumber(r.runtimeOverhead)
           << ", \"pareto_frontier\": "
           << (r.runtimeOverhead > 0.0 && r.crashes > 0 &&
                       !r.dominated
                   ? "true"
                   : "false")
           << ", \"phases\": {";
        for (std::size_t p = 0; p < kReportPhases; ++p) {
            os << (p ? ", " : "") << "\"" << kPhaseKeys[p]
               << "\": " << formatNumber(r.phaseCycles[p]);
        }
        os << "}}";
    }
    os << (report.rows.empty() ? "]" : "\n  ]") << "\n}\n";
}

void
writeRecoveryReportMarkdown(std::ostream &os,
                            const RecoveryReport &report)
{
    os << "# Recovery Pareto report\n\n"
       << "Mean recovery latency (simulated cycles per crash) "
          "against fault-free runtime\noverhead (gmean cycles vs. "
          "baseline). Frontier rows (`*`) are undominated:\nno "
          "other scheme recovers faster at equal-or-lower "
          "overhead.\n\n";
    os << "| scheme | crashes | mean recovery (cyc) | max (cyc) | "
          "mean lost work (instrs) | runtime overhead | frontier "
          "|\n";
    os << "|--------|--------:|--------------------:|----------:|"
          "------------------------:|-----------------:|:--------:"
          "|\n";
    for (const RecoveryParetoRow &r : report.rows) {
        os << "| " << r.scheme << " | " << r.crashes << " | "
           << formatNumber(r.meanRecoveryCycles) << " | "
           << formatNumber(r.maxRecoveryCycles) << " | "
           << formatNumber(r.meanLostWork) << " | ";
        if (r.runtimeOverhead > 0.0)
            os << formatNumber(r.runtimeOverhead);
        else
            os << "n/a";
        os << " | "
           << (r.runtimeOverhead > 0.0 && r.crashes > 0 &&
                       !r.dominated
                   ? "*"
                   : "")
           << " |\n";
    }
    os << "\n## Recovery phase totals (cycles)\n\n"
       << "Phases tile each recovery window exactly: detect + scan "
          "+ undo_replay +\nslice_reexec + resume = total recovery "
          "cycles.\n\n";
    os << "| scheme |";
    for (std::size_t p = 0; p < kReportPhases; ++p)
        os << " " << kPhaseKeys[p] << " |";
    os << "\n|--------|";
    for (std::size_t p = 0; p < kReportPhases; ++p)
        os << "--------:|";
    os << "\n";
    for (const RecoveryParetoRow &r : report.rows) {
        os << "| " << r.scheme << " |";
        for (std::size_t p = 0; p < kReportPhases; ++p)
            os << " " << formatNumber(r.phaseCycles[p]) << " |";
        os << "\n";
    }
}

std::vector<std::string>
telemetryWarnings(const std::map<std::string, double> &metrics)
{
    auto endsWith = [](const std::string &s,
                       const std::string &suffix) {
        return s.size() >= suffix.size() &&
               s.compare(s.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
    };
    std::vector<std::string> warnings;
    for (const auto &[metric, value] : metrics) {
        if (value <= 0.0)
            continue;
        if (endsWith(metric, "trace_drops") ||
            endsWith(metric, ".dropped")) {
            warnings.push_back(
                "trace ring truncated: " + metric + " = " +
                formatNumber(value) +
                " (events lost; raise the trace capacity or narrow "
                "the category mask)");
        } else if (endsWith(metric, ".fallbacks")) {
            warnings.push_back(
                "checkpoint forks fell back: " + metric + " = " +
                formatNumber(value) +
                " (cases re-executed from scratch; the campaign "
                "report's checkpoint_cache.fallback_reasons names "
                "why)");
        }
    }
    return warnings;
}

namespace {

/**
 * Minimal Chrome-trace walker: finds the traceEvents array and
 * checks each event object without building a DOM. Grammar errors
 * throw; semantic findings accumulate in the validation result.
 */
class TraceWalker
{
  public:
    TraceWalker(const std::string &text, TraceValidation &out)
        : text_(text), out_(out)
    {
    }

    void
    run()
    {
        skipWs();
        parseValue(/*topLevel=*/true);
        skipWs();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        if (!sawEvents_)
            out_.errors.push_back(
                "document has no traceEvents array");
    }

  private:
    const std::string &text_;
    TraceValidation &out_;
    std::size_t pos_ = 0;
    bool sawEvents_ = false;
    /** Last ts per counter series, keyed "name\x1f<tid>". */
    std::map<std::string, double> lastTs_;
    std::map<std::string, bool> flagged_;

    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("JSON parse error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string s;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return s;
            if (c != '\\') {
                s += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': s += '"'; break;
              case '\\': s += '\\'; break;
              case '/': s += '/'; break;
              case 'n': s += '\n'; break;
              case 't': s += '\t'; break;
              case 'r': s += '\r'; break;
              case 'b': s += '\b'; break;
              case 'f': s += '\f'; break;
              case 'u':
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                pos_ += 4;
                s += '?';
                break;
              default: fail("bad escape");
            }
        }
    }

    double
    parseNumber()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(
                    text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected number");
        return std::strtod(
            text_.substr(start, pos_ - start).c_str(), nullptr);
    }

    void
    skipLiteral(const char *lit)
    {
        for (const char *p = lit; *p; ++p) {
            if (pos_ >= text_.size() || text_[pos_] != *p)
                fail(std::string("expected literal ") + lit);
            ++pos_;
        }
    }

    /** Consume any value without inspecting it. */
    void
    skipValue()
    {
        char c = peek();
        if (c == '"') {
            parseString();
        } else if (c == '{') {
            ++pos_;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return;
            }
            while (true) {
                parseString();
                skipWs();
                expect(':');
                skipWs();
                skipValue();
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    skipWs();
                    continue;
                }
                expect('}');
                return;
            }
        } else if (c == '[') {
            ++pos_;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return;
            }
            while (true) {
                skipValue();
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    skipWs();
                    continue;
                }
                expect(']');
                return;
            }
        } else if (c == 't') {
            skipLiteral("true");
        } else if (c == 'f') {
            skipLiteral("false");
        } else if (c == 'n') {
            skipLiteral("null");
        } else {
            parseNumber();
        }
    }

    /** One traceEvents element: pull name/ph/tid/ts, verify. */
    void
    parseEvent()
    {
        expect('{');
        skipWs();
        std::string name;
        std::string ph;
        double tid = 0;
        double ts = 0;
        bool hasTs = false;
        if (peek() != '}') {
            while (true) {
                std::string key = parseString();
                skipWs();
                expect(':');
                skipWs();
                if (key == "name" && peek() == '"') {
                    name = parseString();
                } else if (key == "ph" && peek() == '"') {
                    ph = parseString();
                } else if (key == "tid" && peek() != '"' &&
                           peek() != '{' && peek() != '[') {
                    tid = parseNumber();
                } else if (key == "ts" && peek() != '"' &&
                           peek() != '{' && peek() != '[') {
                    ts = parseNumber();
                    hasTs = true;
                } else {
                    skipValue();
                }
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    skipWs();
                    continue;
                }
                break;
            }
        }
        expect('}');
        ++out_.events;
        if (ph != "C")
            return;
        ++out_.counterEvents;
        if (!hasTs) {
            out_.errors.push_back("counter event \"" + name +
                                  "\" has no ts");
            return;
        }
        std::string series =
            name + '\x1f' + std::to_string(static_cast<long>(tid));
        auto it = lastTs_.find(series);
        if (it == lastTs_.end()) {
            ++out_.counterTracks;
            lastTs_[series] = ts;
            return;
        }
        if (ts < it->second && !flagged_[series]) {
            out_.errors.push_back(
                "counter track \"" + name + "\" (tid " +
                std::to_string(static_cast<long>(tid)) +
                ") goes backwards in time: ts " +
                formatNumber(ts) + " after " +
                formatNumber(it->second));
            flagged_[series] = true;
        }
        it->second = std::max(it->second, ts);
    }

    void
    parseValue(bool topLevel)
    {
        char c = peek();
        if (c == '{') {
            ++pos_;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return;
            }
            while (true) {
                std::string key = parseString();
                skipWs();
                expect(':');
                skipWs();
                if (topLevel && key == "traceEvents" &&
                    peek() == '[') {
                    sawEvents_ = true;
                    ++pos_;
                    skipWs();
                    if (peek() == ']') {
                        ++pos_;
                    } else {
                        while (true) {
                            parseEvent();
                            skipWs();
                            if (peek() == ',') {
                                ++pos_;
                                skipWs();
                                continue;
                            }
                            expect(']');
                            break;
                        }
                    }
                } else {
                    skipValue();
                }
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    skipWs();
                    continue;
                }
                expect('}');
                return;
            }
        }
        skipValue();
    }
};

} // namespace

bool
validateChromeTrace(const std::string &json, TraceValidation &out,
                    std::string &error)
{
    out = TraceValidation{};
    try {
        TraceWalker(json, out).run();
    } catch (const std::exception &ex) {
        error = ex.what();
        return false;
    }
    return true;
}

} // namespace cwsp::obs
