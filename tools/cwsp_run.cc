/**
 * @file
 * Command-line driver: run any roster application — or a whole suite
 * in parallel — under any persistence scheme with optional hardware
 * overrides, crash injection, full statistics, annotated IR dumps and
 * commit-stream listings.
 *
 *   cwsp_run --list
 *   cwsp_run --app radix --scheme cwsp --stats
 *   cwsp_run --app tpcc --scheme capri --bw 32
 *   cwsp_run --app fft --scheme cwsp --crash 0.5
 *   cwsp_run --app tpcc --scheme ido --dump-ir | less
 *   cwsp_run --app radix --scheme capri --commits 5000:50
 *   cwsp_run --app all --scheme cwsp --jobs 8    # parallel batch
 *   cwsp_run --suite splash3 --scheme capri --jobs 4
 *
 * Batch runs go through the driver::BatchRunner engine: design
 * points are evaluated across a worker pool and memoized in the
 * persistent result cache (see --cache-dir / CWSP_CACHE_DIR), so a
 * repeat invocation re-simulates nothing.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hh"
#include "compiler/pass_manager.hh"
#include "core/consistency_checker.hh"
#include "core/sim_checkpoint.hh"
#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "fault/campaign.hh"
#include "fault/crash_points.hh"
#include "interp/interpreter.hh"
#include "ir/printer.hh"
#include "mem/nvm_device.hh"
#include "sim/json.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

/** Everything the command line sets. */
struct Options
{
    cli::Selection sel;
    std::string nvm = "pmem";
    double bw = 4.0;
    unsigned rbt = 16, pb = 50, wpq = 24;
    double crashFrac = -1.0;
    unsigned crashSweep = 0;
    bool forkSweep = true;
    bool atEvent = false; ///< --crash-at-event given
    fault::CrashPointKind eventKind = fault::CrashPointKind::RegionBegin;
    std::size_t eventIndex = 0;
    long samplePeriod = -1; ///< -1 = sampling off; 0 = default
    bool list = false, stats = false, dumpIr = false;
    std::uint64_t commitsFrom = 0;
    std::uint64_t commitsCount = 0; ///< 0 = no --commits
};

/** One recovery-slice op as text. */
std::string
rsOpText(const ir::RsOp &op)
{
    const std::string dst = "r" + std::to_string(op.dst) + " = ";
    switch (op.kind) {
      case ir::RsOp::Kind::LoadSlot:
        return dst + "slot[r" + std::to_string(op.slot) + "]";
      case ir::RsOp::Kind::SetImm:
        return dst + std::to_string(op.imm);
      case ir::RsOp::Kind::Apply:
        return dst + ir::opcodeName(op.op) + "(r" +
               std::to_string(op.srcA) +
               (op.bIsImm ? ", " + std::to_string(op.imm)
                          : ", r" + std::to_string(op.srcB)) +
               ")";
    }
    return dst + "?";
}

/**
 * --dump-ir: the app compiled for @p scheme, annotated with its
 * recoverable regions — boundary ids, per-region live-ins, the
 * synthesized recovery slices — plus the compile statistics.
 */
void
dumpAnnotatedIr(const workloads::AppProfile &app,
                const std::string &scheme,
                const compiler::CompilerOptions &options)
{
    compiler::CompileStats stats;
    auto mod = workloads::buildApp(app, options, &stats);
    std::printf("== %s (%s profile): %llu regions, %llu mem cuts, "
                "%llu ckpts inserted, %llu pruned, %llu slice ops\n\n",
                app.name.c_str(), scheme.c_str(),
                (unsigned long long)stats.boundaries,
                (unsigned long long)stats.memAntidepCuts,
                (unsigned long long)stats.checkpointsInserted,
                (unsigned long long)stats.checkpointsPruned,
                (unsigned long long)stats.sliceOps);
    for (std::size_t fi = 0; fi < mod->numFunctions(); ++fi) {
        const auto &f = mod->function(static_cast<ir::FuncId>(fi));
        std::printf("func %s (%u params)\n", f.name().c_str(),
                    f.numParams());
        for (std::size_t bb = 0; bb < f.numBlocks(); ++bb) {
            std::printf("bb%zu:\n", bb);
            for (const auto &instr :
                 f.block(static_cast<ir::BlockId>(bb)).instrs()) {
                if (instr.op != ir::Opcode::RegionBoundary) {
                    std::printf("    %s\n", ir::toString(instr).c_str());
                    continue;
                }
                auto rid = static_cast<ir::StaticRegionId>(instr.imm);
                std::printf("  ---------------- region #%u ", rid);
                if (rid < f.recoverySlices().size()) {
                    const auto &slice = f.recoverySlices()[rid];
                    std::printf("(live-in:");
                    for (ir::Reg r : slice.liveIns)
                        std::printf(" r%u", r);
                    std::printf(") RS{");
                    for (std::size_t k = 0; k < slice.ops.size(); ++k)
                        std::printf("%s%s", k ? "; " : "",
                                    rsOpText(slice.ops[k]).c_str());
                    std::printf("}");
                }
                std::printf("\n");
            }
        }
        std::printf("\n");
    }
}

std::string
commitKindName(interp::CommitKind k)
{
    switch (k) {
      case interp::CommitKind::Alu: return "alu";
      case interp::CommitKind::Load: return "load";
      case interp::CommitKind::Store: return "store";
      case interp::CommitKind::Atomic: return "atomic";
      case interp::CommitKind::AtomicPrepare: return "atomprep";
      case interp::CommitKind::Fence: return "fence";
      case interp::CommitKind::Io: return "io";
      case interp::CommitKind::Branch: return "branch";
      case interp::CommitKind::CallRet: return "callret";
      case interp::CommitKind::Boundary: return "boundary";
    }
    // Unknown kinds keep the raw enum value visible instead of
    // collapsing every future addition into an anonymous "?".
    return "?(" + std::to_string(static_cast<int>(k)) + ")";
}

/** Wraps the scheme, printing each commit with its cycle cost. */
class CommitPrinter final : public interp::CommitSink
{
  public:
    CommitPrinter(arch::Scheme &scheme, std::uint64_t from,
                  std::uint64_t count)
        : scheme_(scheme), from_(from), count_(count)
    {
    }

    bool done() const { return printed_ >= count_; }

    void
    onCommit(const interp::CommitInfo &info) override
    {
        Tick before = scheme_.cycles(info.core);
        scheme_.onCommit(info);
        Tick after = scheme_.cycles(info.core);
        if (seq_++ < from_ || printed_ >= count_)
            return;
        ++printed_;
        std::printf("%10llu  c%u %-9s", (unsigned long long)before,
                    info.core, commitKindName(info.kind).c_str());
        switch (info.kind) {
          case interp::CommitKind::Load:
            std::printf(" [0x%llx]", (unsigned long long)info.addr);
            break;
          case interp::CommitKind::Store:
          case interp::CommitKind::Atomic:
            std::printf(" [0x%llx] = %llu%s",
                        (unsigned long long)info.addr,
                        (unsigned long long)info.storeValue,
                        info.isCheckpoint ? " (ckpt)" : "");
            break;
          case interp::CommitKind::Io:
            std::printf(" dev%llu <- %llu",
                        (unsigned long long)info.addr,
                        (unsigned long long)info.storeValue);
            break;
          case interp::CommitKind::Boundary:
            std::printf(" region %llu (static #%u)",
                        (unsigned long long)scheme_.currentRegion(
                            info.core),
                        info.staticRegion);
            break;
          default:
            break;
        }
        if (after > before + 1)
            std::printf("   (+%llu cycles)",
                        (unsigned long long)(after - before));
        std::printf("\n");
    }

  private:
    arch::Scheme &scheme_;
    std::uint64_t from_;
    std::uint64_t count_;
    std::uint64_t seq_ = 0;
    std::uint64_t printed_ = 0;
};

/**
 * --commits FROM:N: drive the interpreter through the scheme and
 * print committed instructions FROM..FROM+N-1 with their cycle
 * timestamps, region ids and persistence events — the gem5
 * `--debug-flags=Exec` equivalent for this simulator.
 */
void
listCommits(const ir::Module &mod, const core::SystemConfig &cfg,
            std::uint64_t from, std::uint64_t count)
{
    interp::SparseMemory memory;
    mem::Hierarchy hierarchy(cfg.hierarchy, 1);
    auto scheme = arch::makeScheme(cfg.scheme, hierarchy, 1);
    CommitPrinter printer(*scheme, from, count);
    interp::Interpreter it(mod, memory, 0);
    it.start("main", {}, printer);
    std::printf("%10s  %s\n", "cycle", "commit");
    while (!it.finished() && !printer.done())
        it.step(printer);
}

/** Write @p json_path ("-" = stdout) via @p emit. */
template <typename Emit>
void
writeJsonOutput(const std::string &json_path, Emit emit)
{
    if (!json::writeFile(json_path, emit))
        std::exit(1);
}

/** The one-line summary of a single-app run @p r. */
void
printRun(std::FILE *out, const workloads::AppProfile &app,
         const Options &o, const core::RunResult &r,
         const core::RunResult &base)
{
    std::fprintf(out,
                 "%s on %s/%s: %llu instrs, %llu cycles "
                 "(slowdown %.3fx), region %.1f instrs, "
                 "PB stalls %llu, RBT stalls %llu\n",
                 app.name.c_str(), o.sel.schemes[0].c_str(),
                 o.nvm.c_str(), (unsigned long long)r.instructions,
                 (unsigned long long)r.cycles,
                 static_cast<double>(r.cycles) /
                     static_cast<double>(base.cycles),
                 r.meanRegionInstrs, (unsigned long long)r.pbFullStalls,
                 (unsigned long long)r.rbtFullStalls);
}

/** Parallel suite/roster evaluation through the batch engine. */
int
runBatch(const Options &o, const core::SystemConfig &cfg,
         const core::SystemConfig &base_cfg)
{
    const auto apps = o.sel.profiles();
    const std::string &scheme = o.sel.schemes[0];
    const std::string &stats_json = o.sel.statsJson;
    driver::BatchRunner runner(o.sel.batchConfig());

    // Interleave (baseline, scheme) per app; results come back in
    // input order regardless of the worker count.
    std::vector<driver::DesignPoint> points;
    points.reserve(2 * apps.size());
    for (const auto &app : apps) {
        points.push_back(driver::DesignPoint{app, base_cfg});
        points.push_back(driver::DesignPoint{app, cfg});
    }
    auto results = runner.runAll(points);

    // With `--stats-json -` the JSON owns stdout; the human-readable
    // table moves to stderr so the stream stays parseable.
    std::FILE *out = stats_json == "-" ? stderr : stdout;
    std::fprintf(out, "%-12s %-8s %12s %12s %9s\n", "app", "suite",
                 "instrs", "cycles", "slowdown");
    double log_sum = 0.0;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        const auto &base = results[2 * i];
        const auto &r = results[2 * i + 1];
        double s = static_cast<double>(r.cycles) /
                   static_cast<double>(base.cycles);
        log_sum += std::log(s);
        std::fprintf(out, "%-12s %-8s %12llu %12llu %8.3fx\n",
                     apps[i].name.c_str(), apps[i].suite.c_str(),
                     (unsigned long long)r.instructions,
                     (unsigned long long)r.cycles, s);
    }
    std::fprintf(out, "gmean slowdown of %s/%s over baseline: %.3fx\n",
                 scheme.c_str(), o.nvm.c_str(),
                 std::exp(log_sum /
                          static_cast<double>(apps.size())));

    auto st = runner.stats();
    std::fprintf(stderr,
                 "batch: %zu points, %llu simulated, %llu disk hits, "
                 "%llu memory hits, %llu compiles (%llu module-cache "
                 "hits)\n",
                 points.size(), (unsigned long long)st.simulated,
                 (unsigned long long)st.diskHits,
                 (unsigned long long)st.memoryHits,
                 (unsigned long long)st.modulesCompiled,
                 (unsigned long long)st.moduleCacheHits);

    if (!stats_json.empty()) {
        writeJsonOutput(stats_json, [&runner](std::ostream &os) {
            runner.exportAggregateJson(os);
        });
    }
    return 0;
}

int
runMain(const Options &o)
{
    if (o.list) {
        for (const auto &app : workloads::appTable()) {
            std::printf("%-12s %-8s%s\n", app.name.c_str(),
                        app.suite.c_str(),
                        app.memIntensive ? "  [memory-intensive]" : "");
        }
        return 0;
    }
    if (o.sel.apps.empty())
        throw cli::UsageError("--app or --suite is required");

    const std::string &scheme = o.sel.schemes[0];
    const std::string &stats_json = o.sel.statsJson;
    const std::string &trace_out = o.sel.traceOut;
    auto cfg = core::makeSystemConfig(scheme);
    cfg.scheme.path.bandwidthGBs = o.bw;
    cfg.scheme.rbtCapacity = o.rbt;
    cfg.scheme.pbCapacity = o.pb;
    cfg.hierarchy.wpqCapacity = o.wpq;
    cfg.hierarchy.tech = mem::nvmTechByName(o.nvm);

    auto base_cfg = core::makeSystemConfig("baseline");
    base_cfg.hierarchy.tech = cfg.hierarchy.tech;

    // Batch mode: several apps (a list, `all` or a suite) in parallel.
    if (o.sel.apps.size() > 1)
        return runBatch(o, cfg, base_cfg);

    const auto &app = workloads::appByName(o.sel.apps[0]);
    if (o.dumpIr) {
        dumpAnnotatedIr(app, scheme, cfg.compiler);
        return 0;
    }
    auto mod = workloads::buildApp(app, cfg.compiler);
    if (o.commitsCount != 0) {
        listCommits(*mod, cfg, o.commitsFrom, o.commitsCount);
        return 0;
    }

    // Single-app measurement runs also go through the batch engine
    // (the baseline/scheme pair in parallel, both persistently
    // cached); --stats, --stats-json, --trace-out and --crash need
    // the live simulator state and take the direct path below.
    if (!o.stats && o.crashFrac < 0.0 && o.crashSweep == 0 &&
        !o.atEvent && stats_json.empty() && trace_out.empty() &&
        o.samplePeriod < 0) {
        driver::BatchRunner runner(o.sel.batchConfig());
        auto results =
            runner.runAll({driver::DesignPoint{app, base_cfg},
                           driver::DesignPoint{app, cfg}});
        printRun(stdout, app, o, results[1], results[0]);
        return 0;
    }

    // Baseline reference for the slowdown column.
    auto base_mod = workloads::buildApp(app, base_cfg.compiler);
    core::WholeSystemSim base_sim(*base_mod, base_cfg);
    auto base = base_sim.run("main");

    core::WholeSystemSim sim(*mod, cfg);
    sim.setExpectedInstrs(workloads::estimatedInstrs(app));
    // Size the trace ring for the run: a few events per instruction,
    // clamped to a sane window (the ring keeps the newest events).
    sim::TraceBuffer trace(
        std::min<std::size_t>(
            std::max<std::size_t>(
                std::bit_ceil(workloads::estimatedInstrs(app) / 4),
                1 << 12),
            1 << 20),
        o.sel.traceMask);
    if (!trace_out.empty())
        sim.attachTrace(&trace);
    // Periodic gauge sampling: every track probes component state at
    // scheduled tick boundaries, so the series is identical however
    // the run is driven (interpreted, replayed, or forked).
    sim::CounterSampler sampler(
        o.samplePeriod > 0 ? static_cast<Tick>(o.samplePeriod)
                           : core::defaultSamplePeriod(cfg));
    const bool sampling = o.samplePeriod >= 0;
    if (sampling)
        sim.attachSampler(&sampler);
    auto r = sim.run("main");
    auto exportTrace = [&] {
        writeJsonOutput(trace_out, [&](std::ostream &os) {
            trace.exportChromeJson(os, sampling ? &sampler : nullptr);
        });
    };

    // With `--stats-json -` the JSON owns stdout (see runBatch).
    printRun(stats_json == "-" ? stderr : stdout, app, o, r, base);

    if (o.stats)
        sim.dumpStats(std::cout);
    if (!stats_json.empty()) {
        writeJsonOutput(stats_json, [&sim](std::ostream &os) {
            sim.exportStatsJson(os);
        });
    }

    if (o.crashSweep > 0 || o.atEvent) {
        // One functional golden run: final memory, return value and
        // device output, plus the commit stream that every sweep
        // point replays its pristine epochs from (battery-backed
        // schemes never replay, so they record none).
        core::GoldenRun golden = core::goldenRun(
            *mod, "main", {}, 200'000'000, 0,
            !cfg.scheme.batteryBacked);
        const core::CommitStream *stream =
            cfg.scheme.batteryBacked ? nullptr : &golden.stream;
        auto set = fault::enumerateCrashPoints(
            *mod, cfg, {core::ThreadSpec{}}, o.crashSweep, stream);

        std::vector<fault::CrashPoint> chosen;
        if (o.atEvent) {
            std::vector<fault::CrashPoint> of_kind;
            for (const auto &p : set.points)
                if (p.kind == o.eventKind)
                    of_kind.push_back(p);
            if (o.eventIndex >= of_kind.size()) {
                std::fprintf(stderr,
                             "only %zu %s point(s) in this run\n",
                             of_kind.size(),
                             fault::crashPointKindName(o.eventKind));
                return 2;
            }
            chosen.push_back(of_kind[o.eventIndex]);
        } else {
            chosen = set.points;
            // Evenly subsample the merged list down to N points.
            const std::size_t want = o.crashSweep;
            if (chosen.size() > want) {
                std::vector<fault::CrashPoint> picked;
                for (std::size_t i = 0; i < want; ++i) {
                    picked.push_back(
                        chosen[i * (chosen.size() - 1) /
                               (want - 1 ? want - 1 : 1)]);
                }
                chosen = std::move(picked);
            }
        }
        if (chosen.empty()) {
            std::fprintf(stderr,
                         "no interesting crash points found\n");
            return 2;
        }

        fault::GoldenRef g;
        g.module = mod.get();
        g.config = &cfg;
        g.result = golden.returnValue;
        g.memory = &golden.memory;
        g.ioStream = &golden.io;
        g.stream = stream;
        // Capture a checkpoint at every sweep tick in one pass; each
        // point then forks from its checkpoint and simulates only
        // crash + recovery + tail (identical verdicts either way).
        fault::CheckpointMap ckpts;
        fault::CkptCacheReport ledger;
        std::size_t ckpt_bytes = 0;
        if (o.forkSweep) {
            std::vector<Tick> ticks;
            for (const auto &p : chosen)
                ticks.push_back(p.tick);
            std::sort(ticks.begin(), ticks.end());
            ticks.erase(std::unique(ticks.begin(), ticks.end()),
                        ticks.end());
            core::WholeSystemSim capture_sim(*mod, cfg);
            auto cr = capture_sim.captureCheckpoints(
                {core::ThreadSpec{}}, ticks, 200'000'000,
                g.stream);
            for (auto &ck : cr.checkpoints) {
                ckpt_bytes += ck->bytes();
                ckpts.emplace(ck->crashTick, std::move(ck));
            }
            ledger.captures = ckpts.size();
            g.checkpoints = &ckpts;
        }
        int failures = 0;
        for (const auto &p : chosen) {
            fault::CampaignCase c;
            c.app = app.name;
            c.scheme = scheme;
            c.pointKind = p.kind;
            c.schedule = fault::CrashSchedule{p.tick};
            auto res = fault::runCase(c, g);
            if (res.forkLookup)
                ledger.note(res.fork);
            if (!res.pass)
                ++failures;
            std::printf(
                "crash @%-8llu %-14s replay passes %llu -> %s%s%s\n",
                (unsigned long long)p.tick,
                fault::crashPointKindName(p.kind),
                (unsigned long long)res.faults.undoReplayPasses,
                res.pass ? "CONSISTENT" : "CORRUPT",
                res.detail.empty() ? "" : ": ",
                res.detail.c_str());
        }
        std::printf("%zu crash point(s), %d failure(s)\n",
                    chosen.size(), failures);
        if (o.forkSweep) {
            std::printf("checkpoint cache: %llu captured, %llu "
                        "forks, %llu fallbacks%s, %.1f MB resident\n",
                        (unsigned long long)ledger.captures,
                        (unsigned long long)ledger.forks,
                        (unsigned long long)ledger.fallbacks,
                        ledger.reasonsBrief().c_str(),
                        (double)ckpt_bytes / (1024.0 * 1024.0));
        }
        return failures == 0 ? 0 : 1;
    }

    if (o.crashFrac >= 0.0) {
        interp::SparseMemory golden_mem;
        Word golden =
            interp::runToCompletion(*mod, golden_mem, "main", {});
        auto crash = static_cast<Tick>(r.cycles * o.crashFrac);
        auto out = sim.runWithCrash({core::ThreadSpec{}}, crash);
        auto check =
            core::checkGlobals(*mod, golden_mem, sim.memory());
        bool ok = check.consistent &&
                  out.result.returnValues[0] == golden;
        std::printf("crash @%llu: %llu persisted, %llu reverted, "
                    "%llu re-executed, resume region %llu -> %s\n",
                    (unsigned long long)out.crashTick,
                    (unsigned long long)out.persistedStores,
                    (unsigned long long)out.revertedStores,
                    (unsigned long long)out.reexecutedInstrs,
                    (unsigned long long)out.resumeRegions[0],
                    ok ? "CONSISTENT" : "CORRUPT");
        if (!trace_out.empty())
            exportTrace();
        return ok ? 0 : 1;
    }

    if (!trace_out.empty()) {
        exportTrace();
        std::fprintf(stderr,
                     "trace: %llu events recorded (%llu dropped) -> "
                     "%s\n",
                     (unsigned long long)trace.recorded(),
                     (unsigned long long)trace.dropped(),
                     trace_out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.sel.schemes = {"cwsp"};
    o.sel.oneScheme = true;
    auto crashAtEvent = [&o](const std::vector<std::string> &v) {
        const auto colon = v[0].find(':');
        if (!fault::parseCrashPointKind(v[0].substr(0, colon),
                                        o.eventKind))
            throw cli::UsageError("--crash-at-event: unknown "
                                  "crash-point kind in '" +
                                  v[0] + "'");
        o.eventIndex = colon == std::string::npos
                           ? 0
                           : cli::parseNumber<std::size_t>(
                                 "--crash-at-event",
                                 v[0].substr(colon + 1), 0, 1000000);
        o.atEvent = true;
    };
    auto commits = [&o](const std::vector<std::string> &v) {
        const auto colon = v[0].find(':');
        if (colon == std::string::npos)
            throw cli::UsageError("--commits expects FROM:N, got '" +
                                  v[0] + "'");
        o.commitsFrom = cli::parseNumber<std::uint64_t>(
            "--commits", v[0].substr(0, colon), 0, UINT64_MAX);
        o.commitsCount = cli::parseNumber<std::uint64_t>(
            "--commits", v[0].substr(colon + 1), 1, UINT64_MAX);
    };
    const cli::Table table = {
        cli::flag("--list", "list applications and exit", o.list),
        cli::selection(o.sel, "--app"),
        cli::selection(o.sel, "--suite"),
        cli::selection(o.sel, "--scheme"),
        cli::number("--bw", "GB", "persist-path bandwidth (default 4)",
                    o.bw, 0.01, 1e4),
        cli::number("--rbt", "N", "RBT entries (default 16)", o.rbt, 1,
                    65536),
        cli::number("--pb", "N", "persist-buffer entries (default 50)",
                    o.pb, 1, 65536),
        cli::number("--wpq", "N", "WPQ entries (default 24)", o.wpq, 1,
                    65536),
        {"--nvm", "TECH",
         "pmem|sttram|reram|dram|cxl-a..d|cxl-dram (default pmem)",
         [&o](const auto &v) {
             mem::nvmTechByName(v[0]); // fatal on an unknown name
             o.nvm = v[0];
         }},
        cli::selection(o.sel, "--jobs"),
        cli::selection(o.sel, "--cache-dir"),
        cli::selection(o.sel, "--no-result-cache"),
        cli::number("--crash", "FRAC",
                    "inject a power failure at FRAC of the run (single "
                    "app)",
                    o.crashFrac, 0.0, 1.0),
        cli::number("--crash-sweep", "N",
                    "crash at N trace-derived interesting points (single\n"
                    "app); each point forks from a golden-run checkpoint",
                    o.crashSweep, 1, 100000),
        cli::flag("--no-fork",
                  "sweep without checkpoint forking (re-execute "
                  "prefixes)",
                  o.forkSweep, false),
        {"--crash-at-event", "KIND[:N]",
         "crash at the N-th (default 0) point of KIND:\n"
         "region_begin|region_persist|mid_drain|undo_append",
         crashAtEvent},
        cli::flag("--stats", "dump component statistics (single app)",
                  o.stats),
        cli::selection(o.sel, "--stats-json"),
        cli::selection(o.sel, "--trace-out"),
        cli::selection(o.sel, "--trace-mask"),
        cli::number("--sample-period", "N",
                    "sample gauges every N simulated cycles (single app;\n"
                    "0 = config-derived) into --stats-json and "
                    "--trace-out",
                    o.samplePeriod, 0),
        cli::flag("--dump-ir",
                  "print the IR compiled for the scheme, annotated with\n"
                  "regions, live-ins and recovery slices, and exit",
                  o.dumpIr),
        {"--commits", "FROM:N",
         "print committed instructions FROM..FROM+N-1 with cycle\n"
         "timestamps and persistence events, and exit",
         commits},
    };
    return cli::run(argc, argv, "[options]", table,
                    [&o] { return runMain(o); });
}
