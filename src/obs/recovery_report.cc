#include "obs/recovery_report.hh"

#include <algorithm>
#include <stdexcept>

#include "core/config.hh"
#include "obs/baseline_diff.hh"
#include "sim/json.hh"

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
    json::Writer w(os);
    w.beginObject(json::lines(2)).key("schemes");
    w.beginArray(json::lines(2));
    for (const RecoveryParetoRow &r : report.rows) {
        w.beginObject(json::kSpaced).field("name", r.scheme);
        w.field("crashes", r.crashes);
        w.field("mean_recovery_cycles", r.meanRecoveryCycles, 6);
        w.field("max_recovery_cycles", r.maxRecoveryCycles, 6);
        w.field("mean_lost_work", r.meanLostWork, 6);
        w.field("runtime_overhead", r.runtimeOverhead, 6);
        w.field("pareto_frontier", r.runtimeOverhead > 0.0 &&
                                       r.crashes > 0 && !r.dominated);
        w.key("phases").beginObject(json::kSpaced);
        for (std::size_t p = 0; p < kReportPhases; ++p)
            w.field(kPhaseKeys[p], r.phaseCycles[p], 6);
        w.end().end();
    }
    w.end().end();
    os << "\n";
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
           << json::numberText(r.meanRecoveryCycles, 6) << " | "
           << json::numberText(r.maxRecoveryCycles, 6) << " | "
           << json::numberText(r.meanLostWork, 6) << " | ";
        if (r.runtimeOverhead > 0.0)
            os << json::numberText(r.runtimeOverhead, 6);
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
            os << " " << json::numberText(r.phaseCycles[p], 6) << " |";
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
                json::numberText(value, 6) +
                " (events lost; raise the trace capacity or narrow "
                "the category mask)");
        } else if (endsWith(metric, ".fallbacks")) {
            warnings.push_back(
                "checkpoint forks fell back: " + metric + " = " +
                json::numberText(value, 6) +
                " (cases re-executed from scratch; the campaign "
                "report's checkpoint_cache.fallback_reasons names "
                "why)");
        }
    }
    return warnings;
}

bool
validateChromeTrace(const std::string &text, TraceValidation &out,
                    std::string &error)
{
    out = TraceValidation{};
    json::Reader r(text);
    /** Last ts per counter series (name, tid), and whether flagged. */
    std::map<std::pair<std::string, double>, std::pair<double, bool>>
        series;
    bool sawEvents = false;
    auto checkEvent = [&]() {
        std::string name, ph;
        double tid = 0, ts = 0;
        bool hasTs = false;
        r.forEachMember([&](const std::string &key, json::Token v) {
            if (v == json::Token::String && key == "name") {
                name = r.text();
            } else if (v == json::Token::String && key == "ph") {
                ph = r.text();
            } else if (v == json::Token::Number && key == "tid") {
                tid = r.number();
            } else if (v == json::Token::Number && key == "ts") {
                ts = r.number();
                hasTs = true;
            }
        });
        ++out.events;
        if (ph != "C")
            return;
        ++out.counterEvents;
        if (!hasTs) {
            out.errors.push_back("counter event \"" + name +
                                 "\" has no ts");
            return;
        }
        auto [it, fresh] = series.try_emplace({name, tid}, ts, false);
        if (fresh) {
            ++out.counterTracks;
            return;
        }
        auto &[last, flagged] = it->second;
        if (ts < last && !flagged) {
            out.errors.push_back(
                "counter track \"" + name + "\" (tid " +
                json::numberText(tid) +
                ") goes backwards in time: ts " +
                json::numberText(ts, 6) + " after " +
                json::numberText(last, 6));
            flagged = true;
        }
        last = std::max(last, ts);
    };
    auto member = [&](const std::string &key, json::Token v) {
        if (key == "traceEvents" && v == json::Token::ArrayBegin) {
            sawEvents = true;
            for (auto e = r.next(); e != json::Token::ArrayEnd;
                 e = r.next()) {
                if (e != json::Token::ObjectBegin)
                    throw std::runtime_error(
                        "traceEvents entry is not an object");
                checkEvent();
            }
        } else if (key == "otherData" && v == json::Token::ObjectBegin) {
            r.forEachMember([&](const std::string &k, json::Token d) {
                if (k == "dropped" && d == json::Token::Number)
                    out.dropped = r.number();
            });
        }
    };
    try {
        if (r.next() == json::Token::ObjectBegin)
            r.forEachMember(member);
        else
            r.skip();
        r.next(); // End, or a throw on trailing characters
    } catch (const std::runtime_error &ex) {
        error = ex.what();
        return false;
    }
    if (!sawEvents)
        out.errors.push_back("document has no traceEvents array");
    return true;
}

} // namespace cwsp::obs
