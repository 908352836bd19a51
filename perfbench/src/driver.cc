/**
 * @file
 * perfbench_driver: runs one workload for a fixed time, checks every
 * simulated output, and prints the metrics as one JSON line.
 *
 *   perfbench_driver --workload paper_sweep --seed 3 --seconds 10
 *                    --trace 0 --ref-dir perfbench/ref --work-dir DIR
 *   perfbench_driver --capture-reference DIR
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs the same
 * passes untraced, then traced passes that record a span around each
 * layer call, and prints the per-layer metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <malloc.h>

#include "bench.hh"
#include "stats_util.hh"

namespace fs = std::filesystem;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

/**
 * setup_s is the median over repetitions of the workload's set-up: at
 * least kMinSetups, more while they have taken under kSetupBudgetS, up
 * to kMaxSetups. A set-up shorter than kSetupBatchS is repeated within
 * its repetition and timed as the batch's mean, so that sub-millisecond
 * set-ups are not read off a single timer interval.
 */
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 2.0;
constexpr double kSetupBatchS = 0.05;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string refDir = "perfbench/ref";
    std::string workDir = ".bench_build/perfbench-work";
    std::string commit = "unknown";
    std::string srcHash = "unknown";
    std::string captureDir;
};

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why << "\n"
              << "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "         [--ref-dir DIR] [--work-dir DIR] "
                 "[--commit C] [--src-hash H]\n"
                 "       perfbench_driver --capture-reference DIR\n"
                 "workloads: paper_sweep design_sweep crash_campaign "
                 "warm_resweep\n";
    return 2;
}

bool
parseArgs(int argc, char **argv, Args &a, std::string &err)
{
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) {
            err = "missing value for " + k;
            return false;
        }
        const std::string v = argv[++i];
        try {
            if (k == "--workload")
                a.workload = v;
            else if (k == "--seed")
                a.seed = std::stoull(v);
            else if (k == "--seconds")
                a.seconds = std::stod(v);
            else if (k == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (k == "--ref-dir")
                a.refDir = v;
            else if (k == "--work-dir")
                a.workDir = v;
            else if (k == "--commit")
                a.commit = v;
            else if (k == "--src-hash")
                a.srcHash = v;
            else if (k == "--capture-reference")
                a.captureDir = v;
            else {
                err = "unknown option " + k;
                return false;
            }
        } catch (const std::exception &) {
            err = "bad value for " + k + ": " + v;
            return false;
        }
    }
    if (a.captureDir.empty() && a.workload.empty()) {
        err = "--workload is required";
        return false;
    }
    if (!(a.seconds > 0)) {
        err = "--seconds must be positive";
        return false;
    }
    return true;
}

/** Why this build must not be timed; empty when it may. */
std::string
refusedBuild()
{
    const std::string type = PERFBENCH_BUILD_TYPE;
    const std::string flags = PERFBENCH_CXX_FLAGS;
    if (type == "Debug")
        return "Debug build";
    if (flags.find("-fsanitize") != std::string::npos)
        return "sanitizer build";
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#ifndef __OPTIMIZE__
    return "unoptimized build";
#endif
    return "";
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto c = line.find(':');
            if (c != std::string::npos)
                return line.substr(line.find_first_not_of(' ', c + 1));
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20)
            out += ch;
    }
    return out + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void
add(Metrics &m, const std::string &name, double v, const std::string &unit)
{
    m.push_back({name, {v, unit}});
}

double
ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

/** Layer spans recorded by the traced passes. */
const std::vector<std::string> kLayers = {
    "compiler",     "interp",     "timing",          "timing.interp",
    "driver",       "ckpt",       "fault.points",    "fault.case",
    "checker.dl",   "checker.globals"};

/** Per-layer metrics of one traced pass. */
std::map<std::string, double>
tracedMetrics(const Pass &p, unsigned jobs)
{
    const auto budget =
        static_cast<std::int64_t>(p.wallS * 1e9) * static_cast<std::int64_t>(jobs);
    const LayerSplit s = splitLayers(p.spans, kLayers, budget);
    std::map<std::string, double> m;
    for (const auto &l : kLayers)
        m[l + ".self_ms"] = ms(s.selfNs.at(l));
    m["trace.unattributed_ms"] = ms(s.unattributedNs);
    m["trace.thread_ms"] = ms(s.budgetNs);
    m["compiler.build_ms"] = ms(s.totalNs.at("compiler"));
    m["interp.record_ms"] = ms(s.totalNs.at("interp"));
    m["timing.replay_ms"] = ms(s.totalNs.at("timing"));
    m["timing.interp_run_ms"] = ms(s.totalNs.at("timing.interp"));
    m["driver.load_ms"] = ms(s.totalNs.at("driver"));
    m["ckpt.capture_ms"] = ms(s.totalNs.at("ckpt"));
    m["fault.points_ms"] = ms(s.totalNs.at("fault.points"));
    m["fault.case_ms"] = ms(s.totalNs.at("fault.case"));
    m["checker.dl_ms"] = ms(s.totalNs.at("checker.dl"));
    m["checker.globals_ms"] = ms(s.totalNs.at("checker.globals"));
    auto it = p.counts.find("sim.instrs");
    const double instrs = it == p.counts.end() ? 0.0 : static_cast<double>(it->second);
    m["timing.ns_per_instr"] =
        s.calls.at("timing") && instrs > 0
            ? static_cast<double>(s.totalNs.at("timing")) / instrs
            : 0.0;
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    std::string err;
    if (!parseArgs(argc, argv, a, err))
        return usage(err);
    if (const std::string why = refusedBuild(); !why.empty()) {
        std::cerr << "perfbench_driver: refusing to time a " << why
                  << " (build type " << PERFBENCH_BUILD_TYPE << ", flags '"
                  << PERFBENCH_CXX_FLAGS << "')\n";
        return 3;
    }
    const unsigned jobs =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);

    std::cout << "fingerprint {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"jobs\": " << jobs
              << ", \"cpu\": " << jsonString(cpuModel())
              << ", \"compiler\": " << jsonString(__VERSION__)
              << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
              << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
              << ", \"commit\": " << jsonString(a.commit)
              << ", \"src_sha256\": " << jsonString(a.srcHash)
              << ", \"workload\": " << jsonString(a.workload)
              << ", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
              << ", \"trace\": " << (a.trace ? 1 : 0) << "}\n";

    if (!a.captureDir.empty())
        return captureReferences(a.captureDir, jobs) ? 0 : 1;

    Env env{a.refDir, a.workDir, a.seed, jobs};
    std::unique_ptr<Workload> w;
    std::vector<double> setups;
    try {
        fs::create_directories(env.workDir);
        double spent = 0;
        for (int k = 0; k < kMaxSetups &&
                        (k < kMinSetups || spent < kSetupBudgetS);
             ++k) {
            const std::int64_t t = nowNs();
            int n = 0;
            do {
                w.reset();
                w = makeWorkload(a.workload, env);
                if (!w)
                    return usage("unknown workload " + a.workload);
                ++n;
            } while (static_cast<double>(nowNs() - t) / 1e9 < kSetupBatchS);
            const double batch = static_cast<double>(nowNs() - t) / 1e9;
            setups.push_back(batch / n);
            spent += batch;
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: set-up failed: " << e.what() << "\n";
        return 1;
    }

    // Timed passes, untraced, for at least --seconds. Each starts with
    // free heap pages returned to the kernel and the RSS high-water
    // mark reset, as a fresh process would.
    std::vector<Pass> passes;
    const std::int64_t t0 = nowNs();
    while (passes.empty() ||
           static_cast<double>(nowNs() - t0) / 1e9 < a.seconds) {
        malloc_trim(0);
        resetPeakRss();
        passes.push_back(w->run(nullptr));
        passes.back().peakRssMb = peakRssMb();
    }

    std::vector<Pass> traced;
    if (a.trace) {
        const std::int64_t t1 = nowNs();
        while (traced.empty() ||
               static_cast<double>(nowNs() - t1) / 1e9 < a.seconds / 2) {
            Tracer tr;
            traced.push_back(w->run(&tr));
            traced.back().spans = tr.collect();
        }
    }

    // Correctness: failed ops, plus every exact count that did not
    // repeat across passes (or differs between traced and untraced).
    std::uint64_t attempted = 0, failed = 0;
    for (const auto &p : passes) {
        attempted += p.ops;
        failed += p.failed;
        failed += countMismatches(passes[0].counts, p.counts, "pass", false);
    }
    for (const auto &p : traced) {
        attempted += p.ops;
        failed += p.failed;
        failed +=
            countMismatches(passes[0].counts, p.counts, "traced pass", true);
    }

    Metrics m;
    if (!a.trace) {
        // Rates are medians of per-pass rates, so that one pass stalled
        // by the host does not move them.
        std::vector<double> opRates, instrRates;
        std::vector<double> walls, cpus, rss, opMs, perCase, gmeans;
        for (const auto &p : passes) {
            opRates.push_back(static_cast<double>(p.ops) / p.wallS);
            instrRates.push_back(static_cast<double>(p.simInstrs) / 1e6 /
                                 p.wallS);
            walls.push_back(p.wallS);
            cpus.push_back(p.cpuS);
            rss.push_back(p.peakRssMb);
            opMs.insert(opMs.end(), p.opMs.begin(), p.opMs.end());
            if (p.ops)
                perCase.push_back(1e3 * p.wallS * jobs /
                                  static_cast<double>(p.ops));
            gmeans.push_back(p.cwspGmean);
        }
        double p50 = 0, tail = 0;
        if (!opMs.empty()) {
            const Tail t = tailPercentile(opMs, passes[0].opMs.size());
            p50 = median(opMs);
            tail = t.value;
            std::cout << "op latency: " << t.samples
                      << " samples, tail = p" << t.percentile << " ("
                      << t.beyond << " samples beyond)\n";
        } else {
            // Campaign cases run inside one runCampaign call: report
            // worker-ms per case per pass (median and slowest pass).
            p50 = median(perCase);
            tail = *std::max_element(perCase.begin(), perCase.end());
            std::cout << "op latency: worker-ms per case over "
                      << perCase.size() << " passes, tail = slowest pass\n";
        }
        const double g = median(gmeans);
        std::cout << "cwsp gmean slowdown " << num(g) << " vs paper "
                  << kPaperCwspGmean << "; " << passes.size()
                  << " passes, wall s min " << num(*std::min_element(walls.begin(), walls.end()))
                  << " max " << num(*std::max_element(walls.begin(), walls.end())) << "\n";
        add(m, "ops_per_s", median(opRates), "1/s");
        add(m, "sim_minstr_per_s", median(instrRates), "Minstr/s");
        add(m, "wall_s", median(walls), "s");
        add(m, "cpu_s", median(cpus), "s");
        add(m, "setup_s", median(setups), "s");
        add(m, "peak_rss_mb", median(rss), "MB");
        add(m, "op_ms_p50", p50, "ms");
        add(m, "op_ms_tail", tail, "ms");
        add(m, "paper_gmean_err",
            g > 0 ? std::fabs(g - kPaperCwspGmean) / kPaperCwspGmean : 1.0,
            "ratio");
    } else {
        // Exact counts from the untraced passes; traced-only counts
        // (stream sizes, re-execution, checker states) from the traced
        // pass; span-derived times as the median over traced passes.
        Counts counts = passes[0].counts;
        for (const auto &[k, v] : traced[0].counts)
            counts.emplace(k, v);
        std::map<std::string, std::vector<double>> sched;
        for (const auto &p : passes)
            for (const auto &[k, v] : p.schedCounts)
                sched[k].push_back(static_cast<double>(v));
        std::map<std::string, std::vector<double>> tm;
        std::vector<double> twall;
        for (const auto &p : traced) {
            for (const auto &[k, v] : tracedMetrics(p, jobs))
                tm[k].push_back(v);
            twall.push_back(p.wallS);
        }
        std::vector<double> uwall;
        for (const auto &p : passes)
            uwall.push_back(p.wallS);

        // An exact count, else the median of a scheduling-dependent one.
        auto count = [&](const std::string &k) {
            auto it = counts.find(k);
            if (it != counts.end())
                return static_cast<double>(it->second);
            auto st = sched.find(k);
            return st == sched.end() ? 0.0 : median(st->second);
        };
        auto medianOf = [&tm](const std::string &k) {
            auto it = tm.find(k);
            return it == tm.end() ? 0.0 : median(it->second);
        };
        const double MiB = 1024.0 * 1024.0;
        for (const char *k :
             {"compiler.modules", "compiler.module_cache_hits",
              "interp.streams", "interp.stream_cache_hits", "interp.steps",
              "timing.replays", "timing.interp_runs", "sim.instrs",
              "arch.regions", "arch.pb_full_stalls", "arch.rbt_full_stalls",
              "mem.l1_accesses", "mem.wb_inserts", "mem.wpq_admissions",
              "mem.undo_logged_stores", "mem.nvm_reads", "driver.disk_hits",
              "driver.disk_misses", "driver.memory_hits", "ckpt.captures",
              "ckpt.forks", "ckpt.fallbacks", "ckpt.evictions", "fault.cases",
              "fault.crashes", "fault.nested_crashes",
              "recovery.undo_replay_passes", "recovery.full_restarts",
              "recovery.reexec_instrs", "checker.dl_checked",
              "checker.dl_states"})
            add(m, k, count(k), "count");
        add(m, "interp.stream_mb", count("interp.stream_bytes") / MiB, "MB");
        add(m, "driver.cache_mb", count("driver.cache_bytes") / MiB, "MB");
        add(m, "ckpt.resident_mb", count("ckpt.resident_bytes") / MiB, "MB");
        const double lookups = count("ckpt.lookups");
        add(m, "ckpt.fork_frac",
            lookups > 0 ? count("ckpt.forks") / lookups : 0.0, "ratio");
        for (const char *k :
             {"compiler.build_ms", "interp.record_ms", "timing.replay_ms",
              "timing.interp_run_ms", "driver.load_ms", "ckpt.capture_ms",
              "fault.points_ms", "fault.case_ms", "checker.dl_ms",
              "checker.globals_ms"})
            add(m, k, medianOf(k), "ms");
        add(m, "timing.ns_per_instr", medianOf("timing.ns_per_instr"),
            "ns");
        for (const auto &l : kLayers)
            add(m, l + ".self_ms", medianOf(l + ".self_ms"), "ms");
        add(m, "trace.unattributed_ms", medianOf("trace.unattributed_ms"),
            "ms");
        add(m, "trace.thread_ms", medianOf("trace.thread_ms"), "ms");
        const double uw = median(uwall);
        add(m, "trace.overhead_pct", uw > 0 ? 100.0 * (median(twall) - uw) / uw : 0.0,
            "%");

        // Keep the spans of the last traced pass for inspection.
        const std::string path = env.workDir + "/spans-" + a.workload +
                                 "-seed" + std::to_string(a.seed) + ".jsonl";
        std::ofstream out(path);
        writeSpans(out, traced.back().spans);
        std::cout << "spans: " << traced.back().spans.size() << " written to "
                  << path << "; " << passes.size() << " untraced and "
                  << traced.size() << " traced passes\n";
    }

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i)
        std::cout << (i ? ", " : "") << jsonString(m[i].first)
                  << ": {\"value\": " << num(m[i].second.first)
                  << ", \"unit\": " << jsonString(m[i].second.second) << "}";
    std::cout << "}}" << std::endl;
    return 0;
}
