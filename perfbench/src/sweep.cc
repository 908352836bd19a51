/**
 * @file
 * The three sweep workloads (paper_sweep, design_sweep, warm_resweep):
 * lists of design points run through one fresh driver::BatchRunner per
 * pass, each op timed around its BatchRunner::run call and checked
 * against the stored reference.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "stats_util.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
namespace cw = cwsp;

namespace perfbench {

namespace {

void
emptyDir(const std::string &dir)
{
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("cannot create " + dir + ": " +
                                 ec.message());
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    return bytes;
}

Reference
loadOrThrow(const std::string &path)
{
    Reference ref;
    std::string err;
    if (!loadReference(path, ref, err))
        throw std::runtime_error(err);
    return ref;
}

/**
 * Run @p fn in a forked child, wait for it, and return what it
 * returned. Throws when the child fails. Set-up work runs this way so
 * that none of its heap stays in the process whose passes are timed.
 * Called with no other threads running.
 */
std::string
runInChild(const char *what, const std::function<std::string()> &fn)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error(std::string(what) + ": pipe failed");
    std::cout.flush();
    std::cerr.flush();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error(std::string(what) + ": fork failed");
    if (pid == 0) {
        close(fds[0]);
        int rc = 0;
        try {
            const std::string out = fn();
            if (write(fds[1], out.data(), out.size()) !=
                static_cast<ssize_t>(out.size()))
                rc = 1;
        } catch (const std::exception &e) {
            std::cerr << "perfbench: " << what << ": " << e.what() << "\n";
            rc = 1;
        }
        _exit(rc);
    }
    close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error(std::string(what) + " failed");
    return out;
}

/**
 * Geometric-mean cycles of cwsp over baseline across the apps that
 * @p ops ran under both presets; 0 when none did.
 */
double
cwspGmean(const std::vector<Op> &ops,
          const std::vector<cw::core::RunResult> &rs)
{
    std::map<std::string, std::pair<double, double>> byApp;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].scheme == "baseline")
            byApp[ops[i].app].first = static_cast<double>(rs[i].cycles);
        else if (ops[i].scheme == "cwsp")
            byApp[ops[i].app].second = static_cast<double>(rs[i].cycles);
    }
    double logSum = 0;
    std::size_t n = 0;
    for (const auto &[app, bc] : byApp) {
        if (bc.first > 0 && bc.second > 0) {
            logSum += std::log(bc.second / bc.first);
            ++n;
        }
    }
    return n ? std::exp(logSum / static_cast<double>(n)) : 0.0;
}

/** Modeled-work counts of @p rs plus the component stats of @p agg. */
void
addModeledCounts(Counts &c, const std::vector<cw::core::RunResult> &rs,
                 const cw::StatsRegistry &agg)
{
    for (const auto &r : rs) {
        c["sim.instrs"] += r.instructions;
        c["mem.l1_accesses"] += r.l1Accesses;
        c["mem.nvm_reads"] += r.nvmReads;
        c["arch.pb_full_stalls"] += r.pbFullStalls;
        c["arch.rbt_full_stalls"] += r.rbtFullStalls;
    }
    // Component stats exist only for points this runner simulated
    // (cache hits carry no component stats).
    cw::StatsRegistry copy(agg);
    c["arch.regions"] = copy.histogram("scheme.regionInstrHist").count();
    std::uint64_t wb = 0, adm = 0, logged = 0;
    for (int i = 0; i < 16; ++i) {
        const std::string core = "core" + std::to_string(i) + ".";
        const std::string mc = "mc" + std::to_string(i) + ".";
        wb += agg.counterValue(core + "wb.inserts");
        adm += agg.counterValue(mc + "wpq.admissions");
        logged += agg.counterValue(mc + "loggedStores");
    }
    c["mem.wb_inserts"] = wb;
    c["mem.wpq_admissions"] = adm;
    c["mem.undo_logged_stores"] = logged;
}

class SweepWorkload : public Workload
{
  public:
    SweepWorkload(std::vector<Op> ops, Reference ref,
                  cw::driver::BatchConfig bc, bool warm, std::uint64_t seed)
        : ops_(std::move(ops)), ref_(std::move(ref)), bc_(std::move(bc)),
          warm_(warm), seed_(seed)
    {
        if (warm_)
            fillCache();
    }

    /** Fixed cwsp gmean measured at set-up (design_sweep). */
    double setupGmean = 0;

    Pass run(Tracer *tr) override;

  private:
    void fillCache();
    cw::core::RunResult tracedOp(cw::driver::BatchRunner &runner,
                                 std::size_t i, Tracer *tr);

    std::vector<Op> ops_;
    Reference ref_;
    cw::driver::BatchConfig bc_;
    bool warm_;
    /** Each pass submits the same ops in its own seeded order. */
    std::uint64_t seed_;
    std::uint64_t passNo_ = 0;

    std::mutex streamsMu_; ///< guards streamSeen_ (traced pass)
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>>
        streamSeen_; ///< (app|scheme) -> (bytes, steps)
};

/**
 * Fill the result cache the warm passes read, from a child process as
 * an earlier sweep by another process would, so none of the fill's
 * heap or caches stay in the measured process.
 */
void
SweepWorkload::fillCache()
{
    emptyDir(bc_.cacheDir);
    runInChild("cache fill", [this]() {
        std::vector<cw::driver::DesignPoint> pts;
        for (const auto &op : ops_)
            pts.push_back(op.point);
        cw::driver::BatchRunner(bc_).runAll(pts);
        return std::string();
    });
}

cw::core::RunResult
SweepWorkload::tracedOp(cw::driver::BatchRunner &runner, std::size_t i,
                        Tracer *tr)
{
    // The calls BatchRunner::run makes, made one by one so each layer
    // gets its own span: a disk-cache load, or compile, record, and
    // the timed replay (run() then finds module and stream cached).
    const Op &op = ops_[i];
    const auto &pt = op.point;
    std::error_code ec;
    if (bc_.useDiskCache && fs::exists(runner.cachePath(pt), ec)) {
        Tracer::Scope s(tr, "driver", i);
        return runner.run(pt);
    }
    std::shared_ptr<const cw::ir::Module> mod;
    {
        Tracer::Scope s(tr, "compiler", i);
        mod = runner.moduleFor(pt.app, pt.config.compiler);
    }
    {
        std::shared_ptr<const cw::core::CommitStream> st;
        {
            Tracer::Scope s(tr, "interp", i);
            st = runner.streamFor(pt.app, pt.config.compiler, pt.entry,
                                  pt.maxInstrs, mod);
        }
        std::lock_guard<std::mutex> lk(streamsMu_);
        streamSeen_.emplace(op.app + "|" + op.scheme,
                            std::make_pair(st->memoryBytes(), st->steps));
    }
    Tracer::Scope s(tr, "timing", i);
    return runner.run(pt);
}

Pass
SweepWorkload::run(Tracer *tr)
{
    if (!warm_ && bc_.useDiskCache)
        emptyDir(bc_.cacheDir);
    streamSeen_.clear();
    shuffleOps(ops_, mix64(seed_ * 1000003 + passNo_++));

    const std::size_t n = ops_.size();
    Pass p;
    std::vector<cw::core::RunResult> rs(n);
    std::vector<char> ok(n, 0);
    p.opMs.assign(n, 0.0);
    std::mutex errMu;

    const double c0 = cpuSeconds();
    const std::int64_t t0 = nowNs();
    auto runner = std::make_unique<cw::driver::BatchRunner>(bc_);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        tasks.push_back([&, i]() {
            Tracer::Scope opSpan(tr, "op", i);
            const std::int64_t a = nowNs();
            try {
                rs[i] = tr ? tracedOp(*runner, i, tr)
                           : runner->run(ops_[i].point);
                ok[i] = 1;
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lk(errMu);
                std::cerr << "perfbench: " << ops_[i].label
                          << " threw: " << e.what() << "\n";
            }
            p.opMs[i] = static_cast<double>(nowNs() - a) / 1e6;
        });
    }
    runner->runTasks(tasks);
    const auto stats = runner->stats();
    addModeledCounts(p.counts, rs, runner->aggregateStats());
    runner.reset();
    p.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    p.cpuS = cpuSeconds() - c0;

    p.ops = n;
    std::size_t reported = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (ok[i] && matchesReference(ref_, ops_[i].label, rs[i])) {
            p.simInstrs += rs[i].instructions;
            continue;
        }
        ++p.failed;
        if (ok[i] && reported++ < 5) {
            std::cerr << "perfbench: " << ops_[i].label
                      << " differs from the reference: got "
                      << encodeResult(rs[i]) << "\n";
        }
    }
    if (warm_ && stats.diskHits != n) {
        std::cerr << "perfbench: warm pass served " << stats.diskHits
                  << " of " << n << " ops from the disk cache\n";
        p.failed += n - std::min<std::uint64_t>(n, stats.diskHits);
    }
    p.cwspGmean = setupGmean > 0 ? setupGmean : cwspGmean(ops_, rs);

    Counts &c = p.counts;
    c["compiler.modules"] = stats.modulesCompiled;
    // Whether a repeated stream lookup hits or re-records depends on
    // what the byte-capped LRU evicted meanwhile, i.e. on thread
    // scheduling; only the number of lookups is exact.
    p.schedCounts["interp.streams"] = stats.streamsRecorded;
    p.schedCounts["interp.stream_cache_hits"] = stats.streamCacheHits;
    c["timing.replays"] = stats.replayedRuns;
    c["timing.interp_runs"] = stats.simulated - stats.replayedRuns;
    c["driver.disk_hits"] = stats.diskHits;
    c["driver.disk_misses"] =
        bc_.useDiskCache ? stats.simulated : 0;
    c["driver.memory_hits"] = stats.memoryHits;
    c["driver.cache_bytes"] =
        bc_.useDiskCache ? dirBytes(bc_.cacheDir) : 0;
    if (!tr) {
        // The traced pass looks modules and streams up itself before
        // run() does, so its cache-hit counts differ by design.
        c["compiler.module_cache_hits"] = stats.moduleCacheHits;
        c["interp.stream_lookups"] =
            stats.streamsRecorded + stats.streamCacheHits;
    } else {
        std::uint64_t bytes = 0, steps = 0;
        for (const auto &[key, bs] : streamSeen_) {
            bytes += bs.first;
            steps += bs.second;
        }
        c["interp.stream_bytes"] = bytes;
        c["interp.steps"] = steps;
    }
    return p;
}

} // namespace

std::unique_ptr<Workload>
makeSweepWorkload(const std::string &name, const Env &env,
                  double canaryGmean)
{
    cw::driver::BatchConfig bc;
    bc.jobs = env.jobs;
    bc.cacheDir = env.workDir + "/cache-" + name;
    const Reference paperRef = loadOrThrow(env.refDir + "/paper_sweep.ref");
    if (name == "paper_sweep") {
        return std::make_unique<SweepWorkload>(paperSweepOps(env.seed),
                                               paperRef, bc, false, env.seed);
    }
    if (name == "warm_resweep") {
        return std::make_unique<SweepWorkload>(paperSweepOps(env.seed),
                                               paperRef, bc, true, env.seed);
    }
    if (name != "design_sweep")
        return nullptr;
    bc.useDiskCache = false;
    auto w = std::make_unique<SweepWorkload>(
        designSweepOps(env.seed),
        loadOrThrow(env.refDir + "/design_grid.ref"), bc, false, env.seed);
    // The grid has no baseline points: report the canary's gmean.
    w->setupGmean = canaryGmean;
    return w;
}

double
modelCanary(const Env &env)
{
    const std::string g = runInChild("model canary", [&env]() {
        const Reference paperRef =
            loadOrThrow(env.refDir + "/paper_sweep.ref");
        std::vector<Op> pair;
        for (const auto &op : paperSweepOps(0)) {
            for (const auto &app : designApps())
                if (op.app == app &&
                    (op.scheme == "baseline" || op.scheme == "cwsp"))
                    pair.push_back(op);
        }
        cw::driver::BatchConfig bc;
        bc.jobs = env.jobs;
        bc.useDiskCache = false;
        std::vector<cw::driver::DesignPoint> pts;
        for (const auto &op : pair)
            pts.push_back(op.point);
        const auto rs = cw::driver::BatchRunner(bc).runAll(pts);
        for (std::size_t i = 0; i < pair.size(); ++i)
            if (!matchesReference(paperRef, pair[i].label, rs[i]))
                throw std::runtime_error(pair[i].label +
                                         " differs from the reference");
        char buf[40];
        std::snprintf(buf, sizeof buf, "%a", cwspGmean(pair, rs));
        return std::string(buf);
    });
    return std::strtod(g.c_str(), nullptr);
}

std::size_t
countMismatches(const Counts &base, const Counts &other,
                const std::string &what, bool onlyShared)
{
    std::size_t bad = 0;
    for (const auto &[k, v] : other) {
        auto it = base.find(k);
        if (it == base.end() ? onlyShared : it->second == v)
            continue;
        std::cerr << "perfbench: count " << k << " did not repeat (" << what
                  << "): "
                  << (it == base.end() ? std::string("absent")
                                       : std::to_string(it->second))
                  << " vs " << v << "\n";
        ++bad;
    }
    return bad;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const Env &env)
{
    const double canaryGmean = modelCanary(env);
    if (name == "crash_campaign")
        return makeCrashWorkload(env);
    return makeSweepWorkload(name, env, canaryGmean);
}

bool
captureReferences(const std::string &dir, unsigned jobs)
{
    cw::driver::BatchConfig bc;
    bc.jobs = jobs;
    bc.useDiskCache = false;
    for (const auto &[file, ops] :
         {std::make_pair(std::string("paper_sweep.ref"), paperSweepOps(0)),
          std::make_pair(std::string("design_grid.ref"), designGrid())}) {
        std::vector<cw::driver::DesignPoint> pts;
        for (const auto &op : ops)
            pts.push_back(op.point);
        const auto rs = cw::driver::BatchRunner(bc).runAll(pts);
        Reference ref;
        for (std::size_t i = 0; i < ops.size(); ++i)
            ref[ops[i].label] = encodeResult(rs[i]);
        std::ofstream out(dir + "/" + file);
        writeReference(out, ref);
        if (!out)
            return false;
        std::cerr << "perfbench: wrote " << ref.size() << " entries to "
                  << dir << "/" << file;
        const double g = cwspGmean(ops, rs);
        if (g > 0)
            std::cerr << " (cwsp gmean " << g << ")";
        std::cerr << "\n";
    }
    return true;
}

} // namespace perfbench
