/**
 * @file
 * Persistence analyzer: consume the simulator's trace streams and
 * stats JSON and produce the observability reports —
 *
 *   cwsp_analyze --attribution --scheme cwsp --app all
 *       per-cause stall attribution table (exact-sum checked)
 *   cwsp_analyze --spans --scheme cwsp --app fft
 *       region lifecycle phase summary (execute/drain/order-wait)
 *   cwsp_analyze --check-invariants [--scheme all --suite splash3]
 *       batch smoke with the online invariant monitor attached;
 *       exit 1 on any protocol violation
 *   cwsp_analyze --diff OLD.json NEW.json [--threshold 0.05]
 *       baseline differ over two stats/BENCH_summary JSON files;
 *       exit 1 when a metric regressed beyond the threshold
 *   cwsp_analyze --whatif [--scheme all --app fft,bzip2]
 *       counterfactual per-resource overhead waterfalls with the
 *       stall-attribution cross-check and the knob-sensitivity
 *       ranking (obs/whatif_profiler.hh); every point runs through
 *       the result-cached BatchRunner
 *
 * Span/attribution modes run each (scheme, app) point directly with
 * a full-mask TraceBuffer attached; --crash FRAC additionally
 * replays the point with a power failure at FRAC of its run length
 * and checks the crash/recovery invariants on that stream too.
 */

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "obs/baseline_diff.hh"
#include "obs/invariant_monitor.hh"
#include "obs/recovery_report.hh"
#include "obs/span_builder.hh"
#include "obs/stall_attribution.hh"
#include "obs/whatif_profiler.hh"
#include "sim/json.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

struct RunOptions
{
    bool spans = false;
    bool attribution = false;
    bool checkInvariants = false;
    double crashFrac = -1.0;
    std::uint64_t traceCap = 1u << 20;
};

/**
 * Run one (scheme, app) point with a full-mask trace attached and
 * feed the requested analyses. Returns the number of invariant
 * violations observed (0 when not checking).
 */
std::uint64_t
analyzePoint(const std::string &scheme,
             const workloads::AppProfile &app, const RunOptions &opt,
             std::vector<obs::AttributionRow> &rows)
{
    auto cfg = core::makeSystemConfig(scheme);
    auto mod = workloads::buildApp(app, cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim::TraceBuffer trace(opt.traceCap, sim::kTraceAll);
    sim.attachTrace(&trace);

    obs::InvariantMonitor monitor(obs::InvariantMonitorConfig{
        cfg.hierarchy.wpqCapacity, 8, 16});
    if (opt.checkInvariants)
        sim.attachTraceSink(&monitor);

    auto result = sim.run("main");
    monitor.finish();
    std::uint64_t violations = monitor.violationCount();
    auto events = trace.snapshot();

    if (opt.attribution) {
        auto attr = obs::attributeStalls(events);
        rows.push_back({scheme, app.name, attr, result.cycles});
    }
    if (opt.spans) {
        auto spans = obs::buildSpans(events);
        std::cout << "== spans: " << scheme << " / " << app.name
                  << " (" << result.cycles << " cycles) ==\n";
        obs::printSpanSummary(std::cout,
                              obs::summarizeSpans(spans));
    }
    if (opt.checkInvariants && !monitor.clean())
        obs::printViolations(std::cerr, monitor.violations());

    if (opt.crashFrac >= 0.0) {
        Tick crash = static_cast<Tick>(
            static_cast<double>(result.cycles) * opt.crashFrac);
        if (crash == 0)
            crash = 1;
        monitor.reset();
        trace.clear();
        auto out = sim.runWithCrash(
            std::vector<core::ThreadSpec>(cfg.numCores), crash);
        monitor.finish();
        violations += monitor.violationCount();
        std::printf("crash %s/%s @%llu: crashed=%d reverted=%llu "
                    "reexec=%llu\n",
                    scheme.c_str(), app.name.c_str(),
                    (unsigned long long)crash, out.crashed ? 1 : 0,
                    (unsigned long long)out.revertedStores,
                    (unsigned long long)out.reexecutedInstrs);
        if (opt.checkInvariants && !monitor.clean())
            obs::printViolations(std::cerr, monitor.violations());
    }
    return violations;
}

/** Batch invariant smoke across the selection via BatchRunner. */
int
runBatchInvariants(const std::vector<std::string> &schemes,
                   const std::vector<workloads::AppProfile> &apps,
                   driver::BatchConfig bc)
{
    bc.checkInvariants = true;
    driver::BatchRunner runner(bc);
    std::vector<driver::DesignPoint> points;
    for (const auto &scheme : schemes)
        for (const auto &app : apps)
            points.push_back(driver::DesignPoint{
                app, core::makeSystemConfig(scheme)});
    runner.runAll(points);
    auto stats = runner.stats();
    std::printf("checked %zu points, %llu events: %llu violations\n",
                points.size(),
                (unsigned long long)stats.invariantEventsChecked,
                (unsigned long long)stats.invariantViolations);
    if (stats.invariantViolations != 0) {
        obs::printViolations(std::cerr, runner.invariantViolations());
        return 1;
    }
    return 0;
}

/** Slurp a whole file; false + message on failure. */
bool
slurpFile(const std::string &path, std::string &out,
          std::string &error)
{
    std::ifstream is(path);
    if (!is) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream ss;
    ss << is.rdbuf();
    out = ss.str();
    return true;
}

/** Telemetry health warnings (trace drops, fork fallbacks). */
void
printTelemetryWarnings(const obs::MetricMap &metrics)
{
    for (const auto &w : obs::telemetryWarnings(metrics))
        std::fprintf(stderr, "warning: %s\n", w.c_str());
}

int
runDiff(const std::string &before, const std::string &after,
        const obs::DiffOptions &options)
{
    // A missing file, malformed JSON, or a document with no numeric
    // metrics at all (the wrong file, or a truncated write) must fail
    // loudly with the offending path named — not print an empty
    // "compared 0 metrics" report and exit 0.
    obs::MetricMap metrics[2];
    for (int i = 0; i < 2; ++i) {
        const std::string &path = i ? after : before;
        std::string json;
        std::string error;
        if (!slurpFile(path, json, error)) {
            std::fprintf(stderr, "cwsp_analyze --diff: %s\n",
                         error.c_str());
            return 2;
        }
        try {
            metrics[i] = obs::flattenMetricsJson(json);
        } catch (const std::exception &ex) {
            std::fprintf(stderr,
                         "cwsp_analyze --diff: %s: not a valid "
                         "stats JSON document: %s\n",
                         path.c_str(), ex.what());
            return 2;
        }
        if (metrics[i].empty()) {
            std::fprintf(stderr,
                         "cwsp_analyze --diff: %s: no numeric "
                         "metrics found (is this a stats/"
                         "BENCH_summary JSON file?)\n",
                         path.c_str());
            return 2;
        }
    }
    obs::DiffResult result =
        obs::diffMetrics(metrics[0], metrics[1], options);
    obs::printDiffReport(std::cout, result, options);
    // Telemetry health of the *current* file: truncated traces or a
    // degraded checkpoint cache make the comparison itself suspect.
    printTelemetryWarnings(metrics[1]);
    return result.hasRegressions() ? 1 : 0;
}

int
runRecoveryReport(const std::string &campaign_path,
                  const std::string &report_json_path)
{
    std::string json;
    std::string error;
    if (!slurpFile(campaign_path, json, error)) {
        std::fprintf(stderr, "cwsp_analyze --recovery-report: %s\n",
                     error.c_str());
        return 2;
    }
    obs::RecoveryReport report;
    if (!obs::buildRecoveryReport(json, report, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --recovery-report: %s: %s\n",
                     campaign_path.c_str(), error.c_str());
        return 2;
    }
    obs::writeRecoveryReportMarkdown(std::cout, report);
    if (!report_json_path.empty() &&
        !json::writeFile(report_json_path, [&](std::ostream &os) {
            obs::writeRecoveryReportJson(os, report);
        }))
        return 2;
    // buildRecoveryReport parsed the document, so this cannot throw.
    printTelemetryWarnings(obs::flattenMetricsJson(json));
    return 0;
}

int
runValidateTrace(const std::string &path)
{
    std::string json;
    std::string error;
    if (!slurpFile(path, json, error)) {
        std::fprintf(stderr, "cwsp_analyze --validate-trace: %s\n",
                     error.c_str());
        return 2;
    }
    obs::TraceValidation v;
    if (!obs::validateChromeTrace(json, v, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --validate-trace: %s: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    std::printf("%s: %zu events, %zu counter samples across %zu "
                "tracks\n",
                path.c_str(), v.events, v.counterEvents,
                v.counterTracks);
    // The export's otherData block carries the ring's drop ledger;
    // a nonzero count means the trace window is truncated and the
    // counter series may start mid-run.
    if (v.dropped > 0)
        std::fprintf(stderr,
                     "warning: trace ring truncated: trace_drops = "
                     "%.0f (events lost; raise the trace capacity or "
                     "narrow the category mask)\n",
                     v.dropped);
    for (const auto &e : v.errors)
        std::fprintf(stderr, "error: %s\n", e.c_str());
    return v.ok() ? 0 : 1;
}

/** Counterfactual what-if waterfalls over the selection. */
int
runWhatIfMode(const std::vector<std::string> &schemes,
              const std::vector<workloads::AppProfile> &apps,
              const driver::BatchConfig &bc, std::uint64_t trace_cap,
              bool sensitivity, const std::string &report_json_path)
{
    driver::BatchRunner runner(bc);
    obs::WhatIfOptions opt;
    opt.traceCap = trace_cap;
    obs::WhatIfReport report =
        obs::runWhatIf(runner, schemes, apps, opt);
    std::vector<obs::SensitivityReport> sens;
    if (sensitivity) {
        sens = obs::runSensitivity(runner, schemes, apps, {});
        report.batch = runner.stats();
    }
    const auto *sens_ptr = sensitivity ? &sens : nullptr;

    // Reconciliation is structural; a failure here means the report
    // assembly itself is broken, not the simulated numbers.
    for (const auto &e : report.entries) {
        if (!e.reconciles()) {
            std::fprintf(stderr,
                         "whatif waterfall does not reconcile for "
                         "%s/%s\n",
                         e.scheme.c_str(), e.app.c_str());
            return 1;
        }
    }

    obs::writeWhatIfMarkdown(std::cout, report, sens_ptr);
    if (!report_json_path.empty() &&
        !json::writeFile(report_json_path, [&](std::ostream &os) {
            obs::writeWhatIfJson(os, report, sens_ptr);
        }))
        return 2;
    return 0;
}

int
runTrajectoryAppend(const std::string &traj,
                    const std::string &summary,
                    const obs::TrajectoryOptions &options)
{
    std::string error;
    if (!obs::appendTrajectory(traj, summary, options, error)) {
        std::fprintf(stderr,
                     "cwsp_analyze --trajectory-append: %s\n",
                     error.c_str());
        return 2;
    }
    std::printf("appended '%s' snapshot of %s to %s\n",
                options.label.c_str(), summary.c_str(),
                traj.c_str());
    return 0;
}

/** Everything the command line sets. */
struct Options
{
    RunOptions run;
    cli::Selection sel;
    std::string diffBefore, diffAfter;
    std::string trajPath, trajSummary;
    std::string recoveryPath, reportJsonPath;
    std::string validatePath;
    bool diffMode = false, trajMode = false;
    bool whatif = false;
    bool sensitivity = true;
    obs::DiffOptions diff;
    obs::TrajectoryOptions traj;
};

int
runMain(Options &o)
{
    RunOptions &opt = o.run;
    if (o.diffMode)
        return runDiff(o.diffBefore, o.diffAfter, o.diff);
    if (!o.recoveryPath.empty())
        return runRecoveryReport(o.recoveryPath, o.reportJsonPath);
    if (!o.validatePath.empty())
        return runValidateTrace(o.validatePath);
    if (o.trajMode)
        return runTrajectoryAppend(o.trajPath, o.trajSummary, o.traj);

    const auto &schemes = o.sel.schemes;
    const auto apps = o.sel.profiles();

    if (o.whatif)
        return runWhatIfMode(schemes, apps, o.sel.batchConfig(),
                             opt.traceCap, o.sensitivity,
                             o.reportJsonPath);

    // Invariant-only smoke goes through the batch engine (parallel,
    // monitor attached per simulation by the runner itself).
    if (opt.checkInvariants && !opt.spans && !opt.attribution &&
        opt.crashFrac < 0.0)
        return runBatchInvariants(schemes, apps, o.sel.batchConfig());

    if (!opt.spans && !opt.attribution)
        opt.attribution = true;

    std::uint64_t violations = 0;
    std::vector<obs::AttributionRow> rows;
    for (const auto &scheme : schemes)
        for (const auto &app : apps)
            violations += analyzePoint(scheme, app, opt, rows);
    if (opt.attribution)
        obs::printAttributionTable(std::cout, rows);
    if (opt.checkInvariants) {
        std::printf("invariants: %llu violation%s\n",
                    (unsigned long long)violations,
                    violations == 1 ? "" : "s");
        if (violations != 0)
            return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.sel.apps = {"fft"};
    o.sel.schemes = {"cwsp"};
    bool keep_cleared = false;
    auto two = [](bool &mode, std::string &a, std::string &b) {
        return [&mode, &a, &b](const std::vector<std::string> &v) {
            mode = true;
            a = v[0];
            b = v[1];
        };
    };
    const cli::Table table = {
        {"", "", "modes (default --attribution):", {}},
        cli::flag("--attribution", "per-cause stall attribution table",
                  o.run.attribution),
        cli::flag("--spans", "region lifecycle phase summary",
                  o.run.spans),
        cli::flag("--check-invariants",
                  "online invariant monitor; exit 1 on violations",
                  o.run.checkInvariants),
        {"--diff", "OLD NEW",
         "compare two stats-JSON files; exit 1 on regressions",
         two(o.diffMode, o.diffBefore, o.diffAfter)},
        cli::flag("--whatif",
                  "per-resource what-if waterfalls + knob sensitivity\n"
                  "(markdown to stdout; --report-json FILE for JSON)",
                  o.whatif),
        cli::text("--recovery-report", "FILE",
                  "per-scheme recovery-latency vs. runtime-overhead\n"
                  "Pareto table from a fault-campaign JSON (markdown\n"
                  "to stdout; --report-json FILE for the JSON form)",
                  o.recoveryPath),
        cli::text("--validate-trace", "FILE",
                  "validate a Chrome/Perfetto trace: parse + counter\n"
                  "tracks monotone in time; exit 1 on findings",
                  o.validatePath),
        {"--trajectory-append", "TRAJ SUMMARY",
         "append a labeled headline-metric snapshot of\n"
         "SUMMARY to the TRAJ JSON array (creates it)",
         two(o.trajMode, o.trajPath, o.trajSummary)},
        {"", "", "selection (run modes):", {}},
        cli::selection(o.sel, "--scheme"),
        cli::selection(o.sel, "--app"),
        cli::selection(o.sel, "--suite"),
        cli::number("--crash", "FRAC",
                    "also crash at FRAC of run length and check recovery",
                    o.run.crashFrac, 0.0, 1.0),
        cli::number("--trace-cap", "N", "trace ring capacity (default 2^20)",
                    o.run.traceCap, 1, 1u << 26),
        cli::selection(o.sel, "--jobs"),
        {"", "", "what-if options:", {}},
        cli::flag("--no-sensitivity", "skip the knob-sensitivity pass",
                  o.sensitivity, false),
        cli::selection(o.sel, "--no-result-cache"),
        cli::text("--report-json", "FILE",
                  "JSON form of the --whatif or --recovery-report "
                  "report",
                  o.reportJsonPath),
        {"", "", "diff options:", {}},
        cli::number("--threshold", "F",
                    "relative change flagged (default 0.05)",
                    o.diff.threshold, 0.0, 1e9),
        {"--ignore", "SUBSTR",
         "skip metrics containing SUBSTR (repeatable)",
         [&o](const auto &v) {
             o.diff.ignoreSubstrings.push_back(v[0]);
         }},
        {"", "", "trajectory options:", {}},
        cli::text("--label", "NAME",
                  "entry label (default: unlabeled)", o.traj.label),
        cli::text("--date", "DATE", "entry date string (optional)",
                  o.traj.date),
        {"--keep", "SUBSTR",
         "replace the kept-metric filter with SUBSTR (repeatable)",
         [&o, &keep_cleared](const auto &v) {
             if (!keep_cleared)
                 o.traj.keepSubstrings.clear();
             keep_cleared = true;
             o.traj.keepSubstrings.push_back(v[0]);
         }},
    };
    return cli::run(argc, argv, "[mode] [selection]", table,
                    [&o] { return runMain(o); });
}
