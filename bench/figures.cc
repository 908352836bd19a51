/**
 * @file
 * The figure table: every regular figure of the paper's evaluation
 * (Figs. 1, 6, 8, 13-27) described once, as a row, and the one
 * function that registers a figure's cases from its row. Irregular
 * figures (fig26's 8-core half) and the ablation, multicore and
 * simspeed benches stay code.
 */

#include <algorithm>
#include <optional>

#include "bench_util.hh"
#include "mem/hierarchy.hh"
#include "mem/nvm_device.hh"
#include "sim/logging.hh"

namespace cwsp::bench {

namespace {

/** How a figure names and orders its cases. */
enum class Layout
{
    /**
     * Series by series: `fig/label/suite/app` bars, then
     * `fig/label/gmean/G` for every suite G and `all` (Figs. 13, 14,
     * 21-27).
     */
    Sweep,
    /** Series by series: `fig/label/app` bars, then `fig/label/gmean`. */
    BySeries,
    /** App by app: `fig/label/app` bars; then `fig/label/gmean`s. */
    ByApp,
    /** One series: `fig/suite/app` bars, then `fig/gmean` or `fig/mean`. */
    Single,
    /** App by app: `fig/suite/app/label` bars; no mean. */
    Grid,
};

/** One bar series of a figure. */
struct Series
{
    std::string label;
    core::SystemConfig config;
    /**
     * What this series' cycles are normalized to; unset = the
     * `baseline` preset. Unused by a field figure.
     */
    std::optional<core::SystemConfig> baseline;
};

/** One figure: its apps, its value, its case names and its series. */
struct Figure
{
    std::string id;
    /** workloads::memIntensiveApps() instead of the full roster. */
    bool memIntensive;
    std::string counter;
    /**
     * The value of one bar, read from the series config's run; null
     * = its cycles over the series baseline's cycles.
     */
    double (*field)(const core::RunResult &);
    Layout layout;
    std::vector<Series> series;
};

using core::makeSystemConfig;
using Knob = void (*)(core::SystemConfig &, unsigned);

/** One series per value: `prefix<value>suffix`, cwsp with @p set(value). */
std::vector<Series>
knob(const std::string &prefix, std::initializer_list<unsigned> values,
     const std::string &suffix, Knob set)
{
    std::vector<Series> out;
    for (unsigned v : values) {
        auto cfg = makeSystemConfig("cwsp");
        set(cfg, v);
        out.push_back({prefix + std::to_string(v) + suffix, cfg, {}});
    }
    return out;
}

/** cwsp per memory technology, over the baseline on the same one. */
std::vector<Series>
perTech(std::initializer_list<const char *> techs)
{
    std::vector<Series> out;
    for (const char *tech : techs) {
        auto cw = makeSystemConfig("cwsp");
        cw.hierarchy.tech = mem::nvmTechByName(tech);
        auto base = makeSystemConfig("baseline");
        base.hierarchy.tech = mem::nvmTechByName(tech);
        out.push_back({tech, cw, base});
    }
    return out;
}

/** CXL-PMEM over CXL-DRAM main memory, 2 to 5 cache levels. */
std::vector<Series>
cacheLevels()
{
    std::vector<Series> out;
    for (unsigned levels = 2; levels <= 5; ++levels) {
        auto dram = makeSystemConfig("baseline");
        dram.hierarchy = mem::figure1Hierarchy(levels);
        dram.hierarchy.tech = mem::cxlDram();
        auto pmem = dram;
        pmem.hierarchy.tech = mem::cxlD();
        out.push_back({"levels" + std::to_string(levels), pmem, dram});
    }
    return out;
}

/** The six cumulative cWSP optimization steps. */
std::vector<Series>
optimizationSteps()
{
    const char *names[] = {"region-formation", "persist-path",
                           "mc-speculation",   "wb-delaying",
                           "wpq-delaying",     "pruning"};
    std::vector<Series> out;
    for (int step = 1; step <= 6; ++step) {
        auto cfg = makeSystemConfig("cwsp");
        // Steps 1..5 run without checkpoint pruning (it is added last).
        if (step < 6)
            cfg.compiler.pruneCheckpoints = false;
        cfg.scheme.features.persistPath = step >= 2;
        cfg.scheme.features.mcSpeculation = step >= 3;
        cfg.scheme.features.wbDelay = step >= 4;
        cfg.scheme.features.wpqDelay = step >= 5;
        core::syncFeatureFlags(cfg);
        out.push_back({"step" + std::to_string(step) + "-" +
                           names[step - 1],
                       cfg,
                       {}});
    }
    return out;
}

/** cwsp and the baseline on a private-L2 + shared-L3 hierarchy. */
std::vector<Series>
threeLevel()
{
    auto cw = makeSystemConfig("cwsp");
    auto drop = cw.hierarchy.dropLlcDirtyEvictions;
    cw.hierarchy = mem::threeLevelHierarchy();
    cw.hierarchy.dropLlcDirtyEvictions = drop;
    core::syncFeatureFlags(cw);
    auto base = makeSystemConfig("baseline");
    base.hierarchy = mem::threeLevelHierarchy();
    return {{"cwsp-l3", cw, base}};
}

/** The preset @p scheme on a @p gbs GB/s persist path. */
core::SystemConfig
atBandwidth(const char *scheme, double gbs)
{
    auto cfg = makeSystemConfig(scheme);
    cfg.scheme.path.bandwidthGBs = gbs;
    return cfg;
}

/** The preset @p scheme, labelled with its name. */
Series
preset(const char *scheme)
{
    return {scheme, makeSystemConfig(scheme), {}};
}

/** Every regular figure, in figure order. */
std::vector<Figure>
buildTable()
{
    auto wb = [](const core::RunResult &r) { return r.meanWbOccupancy; };
    auto wpq = [](const core::RunResult &r) { return r.wpqHitsPerMi(); };
    auto region = [](const core::RunResult &r) {
        return r.meanRegionInstrs;
    };
    return {
        // Fig. 1: CXL-PMEM costs ~2.1x CXL-DRAM at 2 levels, ~1.34x at 5.
        {"fig01", true, "pmem_over_dram", nullptr, Layout::BySeries,
         cacheLevels()},
        // Fig. 6: ~0.39 WB entries under both: the stale-read delay is free.
        {"fig06", false, "wb_occupancy", wb, Layout::Grid,
         {preset("baseline"), preset("cwsp")}},
        // Fig. 8: ~1 load per million hits the WPQ: delaying it is free.
        {"fig08", false, "wpq_hpmi", wpq, Layout::Single, {preset("cwsp")}},
        // Fig. 13: cWSP costs ~6% (gmean) at 4 GB/s; SPLASH3 is worst.
        {"fig13", false, "slowdown", nullptr, Layout::Sweep,
         {preset("cwsp")}},
        // Fig. 14: ReplayCache ~4.3x, Capri-4GB ~1.27x, cWSP ~1.06x.
        {"fig14", false, "slowdown", nullptr, Layout::Sweep,
         {{"replaycache", atBandwidth("replaycache", 4.0), {}},
          {"capri-4GB", atBandwidth("capri", 4.0), {}},
          {"capri-32GB", atBandwidth("capri", 32.0), {}},
          {"cwsp-4GB", atBandwidth("cwsp", 4.0), {}},
          {"cwsp-32GB", atBandwidth("cwsp", 32.0), {}}}},
        // Fig. 15: regions ~4%, + path ~10%, MC/WB/WPQ ~free, pruning ~6%.
        {"fig15", false, "slowdown", nullptr, Layout::BySeries,
         optimizationSteps()},
        // Fig. 17 (Table I): ~4% on every CXL device, a bit more on fast.
        {"fig17", true, "slowdown", nullptr, Layout::BySeries,
         perTech({"cxl-a", "cxl-b", "cxl-c", "cxl-d"})},
        // Fig. 18: cWSP ~3% vs ideal partial-system persistence ~52%.
        {"fig18", true, "slowdown", nullptr, Layout::ByApp,
         {preset("cwsp"), preset("psp")}},
        // Fig. 19: regions average 38.15 dynamic instructions.
        {"fig19", false, "instrs_per_region", region, Layout::Single,
         {preset("cwsp")}},
        // Fig. 20: ~8% on a 3-level SRAM hierarchy.
        {"fig20", false, "slowdown", nullptr, Layout::Single,
         threeLevel()},
        // Fig. 21: overhead falls with bandwidth, flat past ~10 GB/s.
        {"fig21", false, "slowdown", nullptr, Layout::Sweep,
         knob("bw", {1, 2, 4, 10, 20, 32}, "GB",
              [](core::SystemConfig &c, unsigned v) {
                  c.scheme.path.bandwidthGBs = v;
              })},
        // Fig. 22: ~11% at 8 RBT entries, ~4% at 32 (1-core knee: 2-4).
        {"fig22", false, "slowdown", nullptr, Layout::Sweep,
         knob("rbt", {2, 4, 8, 16, 32}, "",
              [](core::SystemConfig &c, unsigned v) {
                  c.scheme.rbtCapacity = v;
              })},
        // Fig. 23: flat over a 10-40 ns persist-path round trip.
        {"fig23", false, "slowdown", nullptr, Layout::Sweep,
         knob("lat", {10, 20, 30, 40}, "ns",
              [](core::SystemConfig &c, unsigned v) {
                  c.scheme.path.oneWayLatency = v; // ns/2 at 2 GHz
              })},
        // Fig. 24: flat over an 8/16/32-entry write buffer.
        {"fig24", false, "slowdown", nullptr, Layout::Sweep,
         knob("wb", {8, 16, 32}, "",
              [](core::SystemConfig &c, unsigned v) {
                  c.hierarchy.wbCapacity = v;
              })},
        // Fig. 25: near-flat over the persist buffer size (~7% at 20).
        {"fig25", false, "slowdown", nullptr, Layout::Sweep,
         knob("pb", {20, 40, 50, 60}, "",
              [](core::SystemConfig &c, unsigned v) {
                  c.scheme.pbCapacity = v;
              })},
        // Fig. 26: ~11% at 8 WPQ entries, flat at 24+ (1-core knee lower).
        {"fig26", false, "slowdown", nullptr, Layout::Sweep,
         knob("wpq", {2, 4, 8, 16, 24, 32}, "",
              [](core::SystemConfig &c, unsigned v) {
                  c.hierarchy.wpqCapacity = v;
              })},
        // Fig. 27: a steady ~8% on PMEM, STT-MRAM and ReRAM.
        {"fig27", false, "slowdown", nullptr, Layout::Sweep,
         perTech({"pmem", "sttram", "reram"})},
    };
}

/**
 * Register case @p name of series @p s over the bars of @p apps: the
 * one bar's value, or the gmean (ratio figure) or mean (field figure)
 * of the bars, taken in the order given.
 */
void
registerCase(const std::string &name, const Figure &fig, const Series &s,
             const std::vector<workloads::AppProfile> &apps, bool mean)
{
    static const auto baseline = makeSystemConfig("baseline");
    std::vector<driver::DesignPoint> points;
    for (const auto &app : apps) {
        if (!fig.field)
            points.push_back({app, s.baseline ? *s.baseline : baseline});
        points.push_back({app, s.config});
    }
    registerMetric(
        name, fig.counter, std::move(points),
        [&fig, mean](const std::vector<core::RunResult> &runs) {
            std::vector<double> bars;
            if (fig.field) {
                for (const auto &r : runs)
                    bars.push_back(fig.field(r));
            } else {
                for (std::size_t i = 0; i + 1 < runs.size(); i += 2)
                    bars.push_back(slowdown(runs[i + 1], runs[i]));
            }
            if (!mean)
                return bars[0];
            if (!fig.field)
                return gmean(bars);
            double sum = 0.0;
            for (double v : bars)
                sum += v;
            return sum / static_cast<double>(bars.size());
        });
}

/** The name of one bar of @p fig. */
std::string
barName(const Figure &fig, const Series &s, const workloads::AppProfile &app)
{
    switch (fig.layout) {
    case Layout::Sweep:
        return fig.id + "/" + s.label + "/" + app.suite + "/" + app.name;
    case Layout::BySeries:
    case Layout::ByApp:
        return fig.id + "/" + s.label + "/" + app.name;
    case Layout::Single:
        return fig.id + "/" + app.suite + "/" + app.name;
    case Layout::Grid:
        break;
    }
    return fig.id + "/" + app.suite + "/" + app.name + "/" + s.label;
}

/**
 * The mean cases of series @p s. A sweep's per-suite and overall
 * gmeans take their apps by name (the order the bars were once summed
 * in); every other mean takes them in figure order.
 */
void
registerMeans(const Figure &fig, const Series &s,
              const std::vector<workloads::AppProfile> &apps)
{
    const std::string mean = fig.field ? "mean" : "gmean";
    switch (fig.layout) {
    case Layout::Sweep: {
        std::vector<std::string> groups = workloads::suiteNames();
        groups.push_back("all");
        for (const auto &group : groups) {
            std::vector<workloads::AppProfile> members;
            for (const auto &app : apps)
                if (group == "all" || app.suite == group)
                    members.push_back(app);
            std::sort(members.begin(), members.end(),
                      [](const auto &a, const auto &b) {
                          return a.name < b.name;
                      });
            registerCase(fig.id + "/" + s.label + "/" + mean + "/" + group,
                         fig, s, members, true);
        }
        break;
    }
    case Layout::BySeries:
    case Layout::ByApp:
        registerCase(fig.id + "/" + s.label + "/" + mean, fig, s, apps,
                     true);
        break;
    case Layout::Single:
        registerCase(fig.id + "/" + mean, fig, s, apps, true);
        break;
    case Layout::Grid:
        break;
    }
}

} // namespace

void
registerFigure(const std::string &id)
{
    static const std::vector<Figure> table = buildTable();
    auto it = std::find_if(table.begin(), table.end(),
                           [&](const Figure &f) { return f.id == id; });
    if (it == table.end())
        cwsp_fatal("unknown figure '", id, "'");
    const Figure &fig = *it;
    const auto apps = fig.memIntensive ? workloads::memIntensiveApps()
                                       : workloads::appTable();
    if (fig.layout == Layout::ByApp || fig.layout == Layout::Grid) {
        for (const auto &app : apps)
            for (const auto &s : fig.series)
                registerCase(barName(fig, s, app), fig, s, {app}, false);
        for (const auto &s : fig.series)
            registerMeans(fig, s, apps);
        return;
    }
    for (const auto &s : fig.series) {
        for (const auto &app : apps)
            registerCase(barName(fig, s, app), fig, s, {app}, false);
        registerMeans(fig, s, apps);
    }
}

} // namespace cwsp::bench
