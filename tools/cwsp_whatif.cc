/**
 * @file
 * Counterfactual what-if profiler CLI. For each selected (scheme,
 * app) point, re-simulate with one resource idealized at a time and
 * print the per-resource overhead waterfall (components + residual
 * reconcile bit-exactly with the measured overhead), the stall-
 * attribution cross-check, and the finite-difference knob
 * sensitivity ranking. Markdown goes to stdout; --json writes the
 * machine-readable form bench_all.sh folds into BENCH_summary.json.
 *
 * All design points run through the BatchRunner, so idealized and
 * perturbed configurations memoize in the persistent result cache
 * under their own canonical keys; repeat invocations are cache hits.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/config.hh"
#include "obs/sensitivity.hh"
#include "obs/whatif_profiler.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

void
usage()
{
    std::fprintf(
        stderr,
        "usage: cwsp_whatif [options]\n"
        "  --scheme NAME|all      scheme(s) to profile (default"
        " all)\n"
        "  --app NAME[,NAME]|all  app(s) to profile (default fft)\n"
        "  --suite NAME           all apps of one suite\n"
        "  --jobs N               worker threads (default: all"
        " cores)\n"
        "  --json FILE            also write the JSON report (- ="
        " stdout)\n"
        "  --no-cross-check       skip the stall-attribution"
        " cross-check\n"
        "  --no-sensitivity       skip the knob-sensitivity pass\n"
        "  --no-result-cache      bypass the persistent result"
        " cache\n"
        "  --cache-dir DIR        result-cache directory\n"
        "  --max-instrs N         per-run instruction budget\n"
        "  --trace-cap N          cross-check trace ring capacity\n");
}

std::vector<std::string>
resolveSchemes(const std::string &spec)
{
    const auto &all = core::schemeNames();
    if (spec == "all")
        return all;
    if (std::find(all.begin(), all.end(), spec) != all.end())
        return {spec};
    cwsp_fatal("unknown scheme '", spec,
               "'; valid: baseline, cwsp, capri, ido, replaycache, "
               "psp, all");
    return {};
}

std::vector<workloads::AppProfile>
resolveApps(const std::string &app_spec, const std::string &suite)
{
    if (!suite.empty()) {
        auto apps = workloads::appsBySuite(suite);
        if (apps.empty()) {
            std::string names;
            for (const auto &s : workloads::suiteNames())
                names += names.empty() ? s : ", " + s;
            cwsp_fatal("unknown suite '", suite, "'; valid: ", names);
        }
        return apps;
    }
    if (app_spec == "all")
        return workloads::appTable();
    std::vector<workloads::AppProfile> apps;
    std::size_t pos = 0;
    while (pos <= app_spec.size()) {
        std::size_t comma = app_spec.find(',', pos);
        std::string name = app_spec.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!name.empty())
            apps.push_back(workloads::appByName(name));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    if (apps.empty())
        cwsp_fatal("no apps selected");
    return apps;
}

int
runMain(int argc, char **argv)
{
    std::string scheme_spec = "all";
    std::string app_spec = "fft";
    std::string suite;
    std::string json_path;
    bool sensitivity = true;
    driver::BatchConfig bc;
    obs::WhatIfOptions opt;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--scheme")
            scheme_spec = next();
        else if (a == "--app")
            app_spec = next();
        else if (a == "--suite")
            suite = next();
        else if (a == "--jobs")
            bc.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        else if (a == "--json")
            json_path = next();
        else if (a == "--no-cross-check")
            opt.crossCheck = false;
        else if (a == "--no-sensitivity")
            sensitivity = false;
        else if (a == "--no-result-cache")
            bc.useDiskCache = false;
        else if (a == "--cache-dir")
            bc.cacheDir = next();
        else if (a == "--max-instrs")
            opt.maxInstrs = std::strtoull(next(), nullptr, 0);
        else if (a == "--trace-cap")
            opt.traceCap = std::strtoull(next(), nullptr, 0);
        else {
            usage();
            return 2;
        }
    }

    auto schemes = resolveSchemes(scheme_spec);
    auto apps = resolveApps(app_spec, suite);

    driver::BatchRunner runner(bc);
    obs::WhatIfReport report = obs::runWhatIf(runner, schemes, apps,
                                              opt);

    std::vector<obs::SensitivityReport> sens;
    if (sensitivity) {
        obs::SensitivityOptions so;
        so.maxInstrs = opt.maxInstrs;
        sens = obs::runSensitivity(runner, schemes, apps, so);
        report.batch = runner.stats();
    }
    const std::vector<obs::SensitivityReport> *sens_ptr =
        sensitivity ? &sens : nullptr;

    // Reconciliation is structural; a failure here means the report
    // assembly itself is broken, not the simulated numbers.
    for (const auto &e : report.entries) {
        if (!e.reconciles())
            cwsp_fatal("waterfall does not reconcile for ", e.scheme,
                       "/", e.app);
    }

    obs::writeWhatIfMarkdown(std::cout, report, sens_ptr);

    if (!json_path.empty()) {
        if (json_path == "-") {
            obs::writeWhatIfJson(std::cout, report, sens_ptr);
        } else {
            std::ofstream os(json_path);
            if (!os) {
                std::fprintf(stderr, "cannot open %s for writing\n",
                             json_path.c_str());
                return 2;
            }
            obs::writeWhatIfJson(os, report, sens_ptr);
        }
    }

    std::size_t warning_count = 0;
    for (const auto &e : report.entries)
        warning_count += e.warnings.size();
    auto stats = runner.stats();
    std::fprintf(stderr,
                 "whatif: %zu points (%llu simulated, %llu memory "
                 "hits, %llu disk hits), %zu cross-check warning%s\n",
                 report.entries.size(),
                 (unsigned long long)stats.simulated,
                 (unsigned long long)stats.memoryHits,
                 (unsigned long long)stats.diskHits, warning_count,
                 warning_count == 1 ? "" : "s");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
