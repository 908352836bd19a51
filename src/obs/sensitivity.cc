#include "obs/sensitivity.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/config.hh"

namespace cwsp::obs {

namespace {

/** A perturbable runtime sizing knob over SystemConfig. */
struct KnobDef
{
    const char *name;
    double (*get)(const core::SystemConfig &);
    void (*set)(core::SystemConfig &, double);
    /** Null = applies to every scheme. */
    bool (*applies)(const core::SystemConfig &);
};

std::uint32_t
toCapacity(double v)
{
    double r = std::max(1.0, std::round(v));
    return static_cast<std::uint32_t>(r);
}

const KnobDef kKnobs[] = {
    {"pb_capacity",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.scheme.pbCapacity);
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.pbCapacity = toCapacity(v);
     },
     nullptr},
    {"rbt_capacity",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.scheme.rbtCapacity);
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.rbtCapacity = toCapacity(v);
     },
     nullptr},
    {"wpq_capacity",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.hierarchy.wpqCapacity);
     },
     [](core::SystemConfig &c, double v) {
         c.hierarchy.wpqCapacity = toCapacity(v);
     },
     nullptr},
    {"path_bandwidth_gbs",
     [](const core::SystemConfig &c) {
         return c.scheme.path.bandwidthGBs;
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.path.bandwidthGBs = v;
     },
     nullptr},
    {"path_latency_cycles",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.scheme.path.oneWayLatency);
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.path.oneWayLatency = toCapacity(v);
     },
     nullptr},
    {"log_service_factor",
     [](const core::SystemConfig &c) {
         return c.hierarchy.logServiceFactor;
     },
     [](core::SystemConfig &c, double v) {
         c.hierarchy.logServiceFactor = std::max(1.0, v);
     },
     nullptr},
    {"wb_capacity",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.hierarchy.wbCapacity);
     },
     [](core::SystemConfig &c, double v) {
         c.hierarchy.wbCapacity = toCapacity(v);
     },
     nullptr},
    {"capri_redo_lines",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.scheme.capriRedoLines);
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.capriRedoLines = toCapacity(v);
     },
     [](const core::SystemConfig &c) {
         return c.scheme.name == "capri";
     }},
    {"replay_mlp",
     [](const core::SystemConfig &c) {
         return static_cast<double>(c.scheme.replayMlp);
     },
     [](core::SystemConfig &c, double v) {
         c.scheme.replayMlp = toCapacity(v);
     },
     [](const core::SystemConfig &c) {
         return c.scheme.name == "replaycache";
     }},
};

double
gmeanRatio(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 0.0;
    double logsum = 0.0;
    for (double r : ratios)
        logsum += std::log(r);
    return std::exp(logsum / static_cast<double>(ratios.size()));
}

std::string
formatValue(double v)
{
    char buf[48];
    if (v == std::round(v) && std::abs(v) < 1e15)
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::vector<SensitivityReport>
runSensitivity(driver::BatchRunner &runner,
               const std::vector<std::string> &schemes,
               const std::vector<workloads::AppProfile> &apps,
               const SensitivityOptions &options)
{
    constexpr std::size_t kNumKnobs = std::size(kKnobs);

    // Lay out every design point of every scheme in one flat batch so
    // the worker pool sees maximal parallelism. kInvalid marks slots
    // whose perturbed value collapsed onto the default (integer knobs
    // at capacity 1): those reuse the default result.
    constexpr std::size_t kInvalid = ~static_cast<std::size_t>(0);
    std::vector<driver::DesignPoint> points;
    auto add = [&](const core::SystemConfig &cfg,
                   const workloads::AppProfile &app) {
        driver::DesignPoint p;
        p.app = app;
        p.config = cfg;
        p.maxInstrs = options.maxInstrs;
        points.push_back(p);
        return points.size() - 1;
    };

    struct SchemePlan
    {
        std::string scheme;
        std::vector<std::size_t> knobIds; ///< indices into kKnobs
        std::vector<std::size_t> baseIdx; ///< per app
        std::vector<std::size_t> defIdx;  ///< per app
        /** [knob][0=lo,1=hi][app] */
        std::vector<std::array<std::vector<std::size_t>, 2>> varIdx;
        std::vector<std::array<double, 3>> values; ///< lo, def, hi
    };

    const core::SystemConfig baseCfg =
        core::makeSystemConfig("baseline");

    std::vector<SchemePlan> plans;
    for (const std::string &scheme : schemes) {
        if (scheme == "baseline")
            continue;
        SchemePlan plan;
        plan.scheme = scheme;
        const core::SystemConfig defCfg =
            core::makeSystemConfig(scheme);
        for (std::size_t k = 0; k < kNumKnobs; ++k) {
            if (kKnobs[k].applies && !kKnobs[k].applies(defCfg))
                continue;
            plan.knobIds.push_back(k);
        }
        for (const auto &app : apps) {
            plan.baseIdx.push_back(add(baseCfg, app));
            plan.defIdx.push_back(add(defCfg, app));
        }
        plan.varIdx.resize(plan.knobIds.size());
        plan.values.resize(plan.knobIds.size());
        for (std::size_t i = 0; i < plan.knobIds.size(); ++i) {
            const KnobDef &def = kKnobs[plan.knobIds[i]];
            double dv = def.get(defCfg);
            core::SystemConfig lo = defCfg;
            def.set(lo, dv * 0.5);
            core::SystemConfig hi = defCfg;
            def.set(hi, dv * 2.0);
            plan.values[i] = {def.get(lo), dv, def.get(hi)};
            for (const auto &app : apps) {
                plan.varIdx[i][0].push_back(
                    plan.values[i][0] == dv ? kInvalid : add(lo, app));
                plan.varIdx[i][1].push_back(
                    plan.values[i][2] == dv ? kInvalid : add(hi, app));
            }
        }
        plans.push_back(std::move(plan));
    }

    const std::vector<core::RunResult> results = runner.runAll(points);

    std::vector<SensitivityReport> reports;
    for (const SchemePlan &plan : plans) {
        SensitivityReport report;
        report.scheme = plan.scheme;
        for (std::size_t i = 0; i < plan.knobIds.size(); ++i) {
            KnobSensitivity ks;
            ks.knob = kKnobs[plan.knobIds[i]].name;
            ks.loValue = plan.values[i][0];
            ks.defaultValue = plan.values[i][1];
            ks.hiValue = plan.values[i][2];

            std::vector<double> loR, defR, hiR, spans;
            for (std::size_t a = 0; a < apps.size(); ++a) {
                double base = static_cast<double>(
                    results[plan.baseIdx[a]].cycles);
                double dc = static_cast<double>(
                    results[plan.defIdx[a]].cycles);
                std::size_t li = plan.varIdx[i][0][a];
                std::size_t hi2 = plan.varIdx[i][1][a];
                double lc = li == kInvalid
                                ? dc
                                : static_cast<double>(
                                      results[li].cycles);
                double hc = hi2 == kInvalid
                                ? dc
                                : static_cast<double>(
                                      results[hi2].cycles);
                if (base > 0.0) {
                    loR.push_back(lc / base);
                    defR.push_back(dc / base);
                    hiR.push_back(hc / base);
                }
                if (dc > 0.0) {
                    double mx = std::max({lc, dc, hc});
                    double mn = std::min({lc, dc, hc});
                    spans.push_back((mx - mn) / dc);
                }
            }
            ks.loSlowdown = gmeanRatio(loR);
            ks.defaultSlowdown = gmeanRatio(defR);
            ks.hiSlowdown = gmeanRatio(hiR);
            double sum = 0.0;
            for (double s : spans)
                sum += s;
            ks.score = spans.empty()
                           ? 0.0
                           : sum / static_cast<double>(spans.size());
            report.knobs.push_back(std::move(ks));
        }
        std::sort(report.knobs.begin(), report.knobs.end(),
                  [](const KnobSensitivity &a,
                     const KnobSensitivity &b) {
                      if (a.score != b.score)
                          return a.score > b.score;
                      return a.knob < b.knob;
                  });
        for (std::size_t i = 0; i < report.knobs.size(); ++i)
            report.knobs[i].rank = static_cast<int>(i) + 1;
        reports.push_back(std::move(report));
    }
    return reports;
}

void
writeSensitivityMarkdown(std::ostream &os,
                         const std::vector<SensitivityReport> &reports)
{
    os << "## Knob sensitivity ranking\n\n"
       << "Each runtime sizing knob perturbed x0.5 / x2 around the "
          "default; score is the\nmean relative cycle span over the "
          "profiled apps (higher = the knob matters\nmore). Slowdowns "
          "are gmean cycles vs. the unpersisted baseline.\n";
    for (const SensitivityReport &r : reports) {
        os << "\n### " << r.scheme << "\n\n"
           << "| rank | knob | lo -> default -> hi | slowdown "
              "lo/def/hi | score |\n"
           << "|-----:|------|---------------------|-----------"
              "--------|------:|\n";
        for (const KnobSensitivity &ks : r.knobs) {
            char sd[96];
            std::snprintf(sd, sizeof(sd), "%.4f / %.4f / %.4f",
                          ks.loSlowdown, ks.defaultSlowdown,
                          ks.hiSlowdown);
            char score[32];
            std::snprintf(score, sizeof(score), "%.5f", ks.score);
            os << "| " << ks.rank << " | `" << ks.knob << "` | "
               << formatValue(ks.loValue) << " -> "
               << formatValue(ks.defaultValue) << " -> "
               << formatValue(ks.hiValue) << " | " << sd << " | "
               << score << " |\n";
        }
    }
}

} // namespace cwsp::obs
