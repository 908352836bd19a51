#include "obs/whatif_profiler.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/config.hh"
#include "core/whole_system_sim.hh"
#include "obs/stall_attribution.hh"
#include "sim/json.hh"

namespace cwsp::obs {

namespace {

constexpr const char *kResourceNames[kNumIdealResources] = {
    "persist_buffer", "wpq", "rbt", "persist_path", "undo_log",
    "region_boundary",
};

constexpr const char *kResourceShort[kNumIdealResources] = {
    "pb", "wpq", "rbt", "path", "log", "bnd",
};

/** Disagreements below this floor are noise, never warned about. */
constexpr std::int64_t kAgreementFloor = 1000;

/** Order-of-magnitude agreement window for the cross-check. */
constexpr std::int64_t kAgreementFactor = 8;

double
gmeanRatio(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 1.0;
    double logsum = 0.0;
    for (double r : ratios)
        logsum += std::log(r);
    return std::exp(logsum / static_cast<double>(ratios.size()));
}

/** The knob-sensitivity ranking, one scheme per line. */
void
writeSensitivityJson(json::Writer &w,
                     const std::vector<SensitivityReport> &reports)
{
    // Slowdowns and scores are read by people: 6 digits.
    auto point = [&w](const char *name, double value,
                      double slowdown) {
        w.key(name).beginObject(json::kSpaced);
        w.field("value", value, 6).field("slowdown", slowdown, 6);
        w.end();
    };
    w.beginArray(json::lines(2));
    for (const SensitivityReport &r : reports) {
        w.beginObject(json::kSpaced).field("scheme", r.scheme);
        w.key("knobs").beginArray(json::lines(2));
        for (const KnobSensitivity &ks : r.knobs) {
            w.beginObject(json::kSpaced).field("name", ks.knob);
            w.field("rank", ks.rank).field("score", ks.score, 6);
            point("lo", ks.loValue, ks.loSlowdown);
            point("default", ks.defaultValue, ks.defaultSlowdown);
            point("hi", ks.hiValue, ks.hiSlowdown);
            w.end();
        }
        w.end().end();
    }
    w.end();
}

} // namespace

const char *
idealResourceName(IdealResource r)
{
    return kResourceNames[static_cast<std::size_t>(r)];
}

int
idealResourceStallCause(IdealResource r)
{
    switch (r) {
      case IdealResource::PersistBuffer:
        return static_cast<int>(sim::StallCause::PbFull);
      case IdealResource::Wpq:
        return static_cast<int>(sim::StallCause::WpqFull);
      case IdealResource::Rbt:
        return static_cast<int>(sim::StallCause::RbtFull);
      case IdealResource::PersistPath:
        return static_cast<int>(sim::StallCause::PathBandwidth);
      case IdealResource::UndoLog:
        return static_cast<int>(sim::StallCause::McUndoLog);
      case IdealResource::RegionBoundary:
        return -1;
    }
    return -1;
}

core::SystemConfig
idealizedConfig(const core::SystemConfig &cfg, IdealResource r)
{
    core::SystemConfig out = cfg;
    switch (r) {
      case IdealResource::PersistBuffer:
        out.scheme.ideal.infinitePb = true;
        break;
      case IdealResource::Wpq:
        out.hierarchy.idealWpq = true;
        break;
      case IdealResource::Rbt:
        out.scheme.ideal.unboundedRbt = true;
        break;
      case IdealResource::PersistPath:
        // An ideal path also removes Capri's worst-case delivery
        // wait on DRAM-cache evictions: that delay *is* path
        // latency charged to the stale-read scan.
        out.scheme.path.ideal = true;
        out.hierarchy.dramEvictionDelay = 0;
        break;
      case IdealResource::UndoLog:
        out.hierarchy.freeUndoLog = true;
        break;
      case IdealResource::RegionBoundary:
        out.scheme.ideal.freeBoundary = true;
        break;
    }
    return out;
}

WhatIfReport
runWhatIf(driver::BatchRunner &runner,
          const std::vector<std::string> &schemes,
          const std::vector<workloads::AppProfile> &apps,
          const WhatIfOptions &options)
{
    const core::SystemConfig baseCfg =
        core::makeSystemConfig("baseline");
    constexpr std::size_t kInvalid = ~static_cast<std::size_t>(0);

    // One flat batch: baseline + real + one point per resource for
    // every non-baseline (scheme, app). Identical points (the shared
    // baseline) dedupe inside the runner.
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

    struct Slot
    {
        std::size_t base = 0;
        std::size_t real = 0;
        std::size_t ideal[kNumIdealResources] = {};
    };
    std::vector<Slot> slots;
    std::vector<std::pair<std::string, const workloads::AppProfile *>>
        pairs;
    for (const std::string &scheme : schemes) {
        const core::SystemConfig realCfg =
            core::makeSystemConfig(scheme);
        for (const auto &app : apps) {
            Slot s;
            s.base = add(baseCfg, app);
            if (scheme == "baseline") {
                s.real = s.base;
                for (auto &i : s.ideal)
                    i = kInvalid;
            } else {
                s.real = add(realCfg, app);
                for (std::size_t r = 0; r < kNumIdealResources; ++r) {
                    s.ideal[r] =
                        add(idealizedConfig(
                                realCfg,
                                static_cast<IdealResource>(r)),
                            app);
                }
            }
            slots.push_back(s);
            pairs.emplace_back(scheme, &app);
        }
    }

    const std::vector<core::RunResult> results = runner.runAll(points);

    WhatIfReport report;
    report.entries.resize(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
        const Slot &s = slots[i];
        WhatIfEntry &e = report.entries[i];
        e.scheme = pairs[i].first;
        e.app = pairs[i].second->name;
        e.baselineCycles = results[s.base].cycles;
        e.realCycles = results[s.real].cycles;
        e.overhead = static_cast<std::int64_t>(e.realCycles) -
                     static_cast<std::int64_t>(e.baselineCycles);
        std::int64_t sum = 0;
        for (std::size_t r = 0; r < kNumIdealResources; ++r) {
            if (s.ideal[r] == kInvalid) {
                e.idealCycles[r] = e.realCycles;
                e.saved[r] = 0;
            } else {
                e.idealCycles[r] = results[s.ideal[r]].cycles;
                e.saved[r] =
                    static_cast<std::int64_t>(e.realCycles) -
                    static_cast<std::int64_t>(e.idealCycles[r]);
            }
            sum += e.saved[r];
            if (e.saved[r] > e.topSaved ||
                (r == 0 && e.topSaved == 0)) {
                e.topSaved = e.saved[r];
                e.topBottleneck = static_cast<IdealResource>(r);
            }
        }
        e.residual = e.overhead - sum;
    }

    // Cross-check: re-run each non-baseline real point with a trace
    // attached and compare the waterfall against stall attribution.
    if (options.crossCheck) {
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < report.entries.size(); ++i) {
            if (report.entries[i].scheme == "baseline")
                continue;
            tasks.push_back([&, i] {
                WhatIfEntry &e = report.entries[i];
                const core::SystemConfig cfg =
                    core::makeSystemConfig(e.scheme);
                auto mod =
                    runner.moduleFor(*pairs[i].second, cfg.compiler);
                core::WholeSystemSim sim(*mod, cfg);
                sim::TraceBuffer trace(options.traceCap,
                                       sim::kTraceAll);
                sim.attachTrace(&trace);
                auto traced =
                    sim.run("main", {}, options.maxInstrs);
                StallAttribution attr =
                    attributeStalls(trace.snapshot());
                e.crossChecked = true;
                e.totalStallCycles = attr.totalStallCycles;
                for (std::size_t c = 0; c < sim::kNumStallCauses;
                     ++c)
                    e.stallCycles[c] = attr.cycles[c];

                char buf[256];
                if (traced.cycles != e.realCycles) {
                    std::snprintf(
                        buf, sizeof(buf),
                        "traced cross-check run took %llu cycles "
                        "but the batch result is %llu",
                        (unsigned long long)traced.cycles,
                        (unsigned long long)e.realCycles);
                    e.warnings.push_back(buf);
                }
                if (e.overhead <= 0)
                    return;
                std::int64_t floor = std::max(
                    e.overhead / 20, kAgreementFloor);
                for (std::size_t r = 0; r < kNumIdealResources;
                     ++r) {
                    int cause = idealResourceStallCause(
                        static_cast<IdealResource>(r));
                    if (cause < 0)
                        continue;
                    std::int64_t rec = std::max(
                        e.saved[r], static_cast<std::int64_t>(0));
                    std::int64_t stall =
                        static_cast<std::int64_t>(
                            attr.cycles[static_cast<std::size_t>(
                                cause)]);
                    if (rec > floor &&
                        stall * kAgreementFactor < rec) {
                        std::snprintf(
                            buf, sizeof(buf),
                            "idealizing %s recovers %lld cycles "
                            "but stall attribution charges only "
                            "%lld to %s",
                            kResourceNames[r], (long long)rec,
                            (long long)stall,
                            sim::stallCauseName(
                                static_cast<sim::StallCause>(
                                    cause)));
                        e.warnings.push_back(buf);
                    } else if (stall > floor &&
                               rec * kAgreementFactor < stall) {
                        std::snprintf(
                            buf, sizeof(buf),
                            "stall attribution charges %lld "
                            "cycles to %s but idealizing %s "
                            "recovers only %lld (overlapped or "
                            "secondary bottleneck)",
                            (long long)stall,
                            sim::stallCauseName(
                                static_cast<sim::StallCause>(
                                    cause)),
                            kResourceNames[r], (long long)rec);
                        e.warnings.push_back(buf);
                    }
                }
            });
        }
        runner.runTasks(tasks);
    }

    // Per-scheme aggregates.
    for (const std::string &scheme : schemes) {
        WhatIfSchemeSummary sum;
        sum.scheme = scheme;
        std::vector<double> ratios;
        for (const WhatIfEntry &e : report.entries) {
            if (e.scheme != scheme)
                continue;
            sum.overheadTotal += e.overhead;
            sum.residualTotal += e.residual;
            for (std::size_t r = 0; r < kNumIdealResources; ++r)
                sum.savedTotal[r] += e.saved[r];
            sum.warningCount += e.warnings.size();
            if (e.baselineCycles > 0) {
                ratios.push_back(
                    static_cast<double>(e.realCycles) /
                    static_cast<double>(e.baselineCycles));
            }
        }
        sum.overheadGmean = gmeanRatio(ratios);
        for (std::size_t r = 0; r < kNumIdealResources; ++r) {
            if (sum.savedTotal[r] > sum.topSaved) {
                sum.topSaved = sum.savedTotal[r];
                sum.topBottleneck = static_cast<IdealResource>(r);
            }
        }
        report.schemes.push_back(std::move(sum));
    }

    report.batch = runner.stats();
    return report;
}

void
writeWhatIfMarkdown(std::ostream &os, const WhatIfReport &report,
                    const std::vector<SensitivityReport> *sensitivity)
{
    os << "# What-if counterfactual profile\n\n"
       << "Per-resource overhead waterfalls: each column is the "
          "cycles recovered by\nidealizing that one resource "
          "(infinite PB, never-full WPQ, unbounded RBT,\nzero-"
          "latency/infinite-bandwidth persist path, free undo "
          "logging, free region\nboundaries). `residual` is the "
          "interaction term; columns + residual equal the\nmeasured "
          "overhead vs. the unpersisted baseline exactly, in "
          "ticks.\n";

    std::vector<std::string> schemeOrder;
    for (const auto &s : report.schemes)
        schemeOrder.push_back(s.scheme);

    for (const std::string &scheme : schemeOrder) {
        os << "\n## " << scheme << "\n\n| app | baseline | real | "
           << "overhead |";
        for (std::size_t r = 0; r < kNumIdealResources; ++r)
            os << ' ' << kResourceShort[r] << " |";
        os << " residual | top |\n|-----|---------:|-----:|"
           << "---------:|";
        for (std::size_t r = 0; r < kNumIdealResources; ++r)
            os << "----:|";
        os << "---------:|-----|\n";
        for (const WhatIfEntry &e : report.entries) {
            if (e.scheme != scheme)
                continue;
            os << "| " << e.app << " | " << e.baselineCycles
               << " | " << e.realCycles << " | " << e.overhead
               << " |";
            for (std::size_t r = 0; r < kNumIdealResources; ++r)
                os << ' ' << e.saved[r] << " |";
            os << ' ' << e.residual << " | "
               << (e.topSaved > 0
                       ? kResourceShort[static_cast<std::size_t>(
                             e.topBottleneck)]
                       : "-")
               << " |\n";
        }
    }

    os << "\n## Scheme summary\n\n"
       << "| scheme | overhead gmean | overhead total | top "
          "bottleneck | saved @ top | residual total | warnings |\n"
       << "|--------|---------------:|---------------:|------------"
          "----|------------:|---------------:|---------:|\n";
    for (const WhatIfSchemeSummary &s : report.schemes) {
        char gm[32];
        std::snprintf(gm, sizeof(gm), "%.4f", s.overheadGmean);
        os << "| " << s.scheme << " | " << gm << " | "
           << s.overheadTotal << " | "
           << (s.topSaved > 0
                   ? idealResourceName(s.topBottleneck)
                   : "-")
           << " | " << s.topSaved << " | " << s.residualTotal
           << " | " << s.warningCount << " |\n";
    }

    bool anyWarnings = false;
    for (const WhatIfEntry &e : report.entries)
        anyWarnings = anyWarnings || !e.warnings.empty();
    if (anyWarnings) {
        os << "\n## Cross-check warnings\n\n";
        for (const WhatIfEntry &e : report.entries)
            for (const std::string &w : e.warnings)
                os << "- `" << e.scheme << "/" << e.app << "`: " << w
                   << "\n";
    }

    if (sensitivity && !sensitivity->empty()) {
        os << "\n";
        writeSensitivityMarkdown(os, *sensitivity);
    }
}

void
writeWhatIfJson(std::ostream &os, const WhatIfReport &report,
                const std::vector<SensitivityReport> *sensitivity)
{
    json::Writer w(os);
    auto perResource = [&w](const char *key, const auto &values) {
        w.key(key).beginObject(json::kSpaced);
        for (std::size_t r = 0; r < kNumIdealResources; ++r)
            w.field(kResourceNames[r], values[r]);
        w.end();
    };
    auto bottleneck = [](std::int64_t saved, IdealResource r) {
        return saved > 0 ? idealResourceName(r) : "none";
    };
    w.beginObject(json::lines(2)).key("whatif");
    w.beginObject(json::lines(2)).key("points");
    w.beginArray(json::lines(2));
    for (const WhatIfEntry &e : report.entries) {
        w.beginObject(json::kSpaced).field("scheme", e.scheme);
        w.field("app", e.app).field("baseline_cycles", e.baselineCycles);
        w.field("real_cycles", e.realCycles);
        w.field("overhead_cycles", e.overhead);
        perResource("saved", e.saved);
        perResource("ideal_cycles", e.idealCycles);
        w.field("residual_cycles", e.residual);
        w.field("top_bottleneck", bottleneck(e.topSaved, e.topBottleneck));
        w.field("top_saved_cycles", e.topSaved);
        if (e.crossChecked) {
            w.key("stalls").beginObject(json::kSpaced);
            for (std::size_t c = 0; c < sim::kNumStallCauses; ++c) {
                w.field(sim::stallCauseName(
                            static_cast<sim::StallCause>(c)),
                        e.stallCycles[c]);
            }
            w.field("total", e.totalStallCycles).end();
        }
        w.key("warnings").beginArray(json::kSpaced);
        for (const std::string &warning : e.warnings)
            w.value(warning);
        w.end().end();
    }
    w.end().key("scheme_summary").beginArray(json::lines(2));
    for (const WhatIfSchemeSummary &s : report.schemes) {
        w.beginObject(json::kSpaced).field("name", s.scheme);
        w.field("overhead_total", s.overheadTotal);
        w.field("overhead_gmean", s.overheadGmean, 6);
        perResource("saved_total", s.savedTotal);
        w.field("residual_total", s.residualTotal);
        w.field("top_bottleneck", bottleneck(s.topSaved, s.topBottleneck));
        w.field("top_saved_cycles", s.topSaved);
        w.field("warning_count", s.warningCount).end();
    }
    w.end().key("batch").beginObject(json::kSpaced);
    w.field("simulated", report.batch.simulated);
    w.field("memory_hits", report.batch.memoryHits);
    w.field("disk_hits", report.batch.diskHits);
    w.field("replayed_runs", report.batch.replayedRuns).end().end();
    if (sensitivity) {
        w.key("sensitivity");
        writeSensitivityJson(w, *sensitivity);
    }
    w.end();
    os << "\n";
}

} // namespace cwsp::obs
