/**
 * @file
 * The parallel batch simulation engine: parallel-vs-sequential
 * determinism, compiled-module sharing, in-flight de-duplication,
 * the persistent on-disk result cache (hit/miss, version-stamp
 * invalidation, collision safety), the record-on-reuse stream policy,
 * strict cache-size environment variables, and the bench helpers
 * layered on top (gmean edge cases).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

#include "bench_util.hh"
#include "core/config.hh"
#include "core/config_serial.hh"
#include "driver/batch_runner.hh"
#include "sim/logging.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

/** A deliberately tiny roster app so every test runs in millis. */
workloads::AppProfile
tinyApp(const std::string &name, std::uint64_t iterations)
{
    workloads::AppProfile a;
    a.name = name;
    a.suite = "test";
    a.kind = workloads::KernelKind::Mix;
    a.mix.iterations = iterations;
    a.mix.hotWords = 1 << 8;
    a.mix.warmWords = 1 << 10;
    a.mix.coldLines = 1 << 10;
    a.mix.storePct = 50;
    return a;
}

void
expectSameResult(const core::RunResult &a, const core::RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.returnValues, b.returnValues);
    EXPECT_EQ(a.meanRegionInstrs, b.meanRegionInstrs);
    EXPECT_EQ(a.meanWbOccupancy, b.meanWbOccupancy);
    EXPECT_EQ(a.wpqHits, b.wpqHits);
    EXPECT_EQ(a.nvmReads, b.nvmReads);
    EXPECT_EQ(a.l1Accesses, b.l1Accesses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.dramCacheHits, b.dramCacheHits);
    EXPECT_EQ(a.dramCacheMisses, b.dramCacheMisses);
    EXPECT_EQ(a.pbFullStalls, b.pbFullStalls);
    EXPECT_EQ(a.rbtFullStalls, b.rbtFullStalls);
    EXPECT_EQ(a.wbPersistDelays, b.wbPersistDelays);
}

driver::BatchConfig
memOnly(unsigned jobs)
{
    driver::BatchConfig c;
    c.jobs = jobs;
    c.useDiskCache = false;
    return c;
}

std::string
freshCacheDir(const char *tag)
{
    auto dir = std::filesystem::path(::testing::TempDir()) /
               (std::string("cwsp-cache-") + tag + "-XXXXXX");
    std::string templ = dir.string();
    char *made = ::mkdtemp(templ.data());
    EXPECT_NE(made, nullptr);
    return templ;
}

std::vector<driver::DesignPoint>
crossProduct()
{
    std::vector<workloads::AppProfile> apps = {tinyApp("t-alpha", 60),
                                               tinyApp("t-beta", 90)};
    std::vector<driver::DesignPoint> points;
    for (const auto &app : apps) {
        for (const char *scheme :
             {"baseline", "cwsp", "capri", "replaycache"}) {
            points.push_back(driver::DesignPoint{
                app, core::makeSystemConfig(scheme)});
        }
    }
    return points;
}

} // namespace

TEST(BatchRunner, ParallelMatchesSequentialBitExactly)
{
    auto points = crossProduct();

    driver::BatchRunner seq(memOnly(1));
    driver::BatchRunner par(memOnly(8));
    auto rs = seq.runAll(points);
    auto rp = par.runAll(points);

    ASSERT_EQ(rs.size(), points.size());
    ASSERT_EQ(rp.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        SCOPED_TRACE(points[i].app.name + "/" +
                     points[i].config.scheme.name);
        expectSameResult(rs[i], rp[i]);
    }
}

TEST(BatchRunner, MatchesDirectSimulation)
{
    auto app = tinyApp("t-direct", 80);
    auto cfg = core::makeSystemConfig("cwsp");

    auto mod = workloads::buildApp(app, cfg.compiler);
    auto direct = core::WholeSystemSim(*mod, cfg).run("main");

    driver::BatchRunner runner(memOnly(4));
    auto batched = runner.run(driver::DesignPoint{app, cfg});
    expectSameResult(direct, batched);
}

TEST(BatchRunner, ModuleCompileSharedAcrossSchemeConfigs)
{
    auto app = tinyApp("t-modcache", 60);
    // Three design points with identical compiler options but
    // different hardware: one buildApp compile, shared read-only.
    std::vector<driver::DesignPoint> points;
    for (std::uint32_t pb : {50, 20, 10}) {
        auto cfg = core::makeSystemConfig("cwsp");
        cfg.scheme.pbCapacity = pb;
        points.push_back(driver::DesignPoint{app, cfg});
    }

    driver::BatchRunner runner(memOnly(1));
    runner.runAll(points);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 3u);
    EXPECT_EQ(st.modulesCompiled, 1u);
    EXPECT_EQ(st.moduleCacheHits, 2u);

    // A different compiler profile does trigger a second compile.
    runner.run(
        driver::DesignPoint{app, core::makeSystemConfig("baseline")});
    EXPECT_EQ(runner.stats().modulesCompiled, 2u);
}

TEST(BatchRunner, DuplicatePointsSimulateOnce)
{
    auto app = tinyApp("t-dup", 60);
    auto cfg = core::makeSystemConfig("cwsp");
    std::vector<driver::DesignPoint> points(
        8, driver::DesignPoint{app, cfg});

    driver::BatchRunner runner(memOnly(4));
    auto results = runner.runAll(points);
    EXPECT_EQ(runner.stats().simulated, 1u);
    for (std::size_t i = 1; i < results.size(); ++i)
        expectSameResult(results[0], results[i]);
}

TEST(BatchRunner, DiskCacheHitAcrossRunnersAndMissOnVersionBump)
{
    std::string dir = freshCacheDir("version");
    auto app = tinyApp("t-disk", 70);
    driver::DesignPoint point{app, core::makeSystemConfig("cwsp")};

    driver::BatchConfig cold;
    cold.jobs = 1;
    cold.cacheDir = dir;

    core::RunResult first;
    {
        driver::BatchRunner runner(cold);
        first = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        EXPECT_TRUE(
            std::filesystem::exists(runner.cachePath(point)));
    }

    // A fresh runner (fresh process, conceptually) must not
    // re-simulate: the result comes back from disk, bit-identical.
    {
        driver::BatchRunner runner(cold);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 0u);
        EXPECT_EQ(runner.stats().diskHits, 1u);
        expectSameResult(first, again);
    }

    // Bumping the code-version stamp invalidates every entry.
    {
        auto bumped = cold;
        bumped.versionStamp = "cwsp-results-test-v2";
        driver::BatchRunner runner(bumped);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        expectSameResult(first, again);
    }

    std::filesystem::remove_all(dir);
}

TEST(BatchRunner, CorruptOrMismatchedEntryIsAMissNotAWrongResult)
{
    std::string dir = freshCacheDir("corrupt");
    auto app = tinyApp("t-corrupt", 70);
    driver::DesignPoint point{app, core::makeSystemConfig("cwsp")};

    driver::BatchConfig cfg;
    cfg.jobs = 1;
    cfg.cacheDir = dir;

    core::RunResult first;
    {
        driver::BatchRunner runner(cfg);
        first = runner.run(point);
    }
    // Truncate the stored entry; the loader must reject it and
    // re-simulate rather than return garbage.
    {
        driver::BatchRunner probe(cfg);
        std::ofstream(probe.cachePath(point), std::ios::trunc)
            << "cwsp-result-cache cwsp-results-v1\nkey bogus\n";
    }
    {
        driver::BatchRunner runner(cfg);
        auto again = runner.run(point);
        EXPECT_EQ(runner.stats().simulated, 1u);
        EXPECT_EQ(runner.stats().diskHits, 0u);
        expectSameResult(first, again);
    }
    std::filesystem::remove_all(dir);
}

TEST(BatchRunner, CacheKeyCoversAppConfigAndBudget)
{
    auto app = tinyApp("t-key", 50);
    driver::DesignPoint a{app, core::makeSystemConfig("cwsp")};

    auto b = a;
    b.config.scheme.pbCapacity += 1;
    auto c = a;
    c.config.scheme.path.bandwidthGBs = 32.0;
    auto d = a;
    d.config.compiler.pruneCheckpoints = false;
    auto e = a;
    e.maxInstrs = 123;
    auto f = a;
    f.app.mix.iterations += 1;

    auto key = driver::BatchRunner::pointKey(a);
    EXPECT_NE(key, driver::BatchRunner::pointKey(b));
    EXPECT_NE(key, driver::BatchRunner::pointKey(c));
    EXPECT_NE(key, driver::BatchRunner::pointKey(d));
    EXPECT_NE(key, driver::BatchRunner::pointKey(e));
    EXPECT_NE(key, driver::BatchRunner::pointKey(f));
    // Identical points agree, and keys are single-line (the on-disk
    // format echoes them for collision safety).
    EXPECT_EQ(key, driver::BatchRunner::pointKey(a));
    EXPECT_EQ(key.find('\n'), std::string::npos);
}

namespace {

/** @p n hardware variants of one program (same compile, same entry). */
std::vector<driver::DesignPoint>
variantsOf(const workloads::AppProfile &app, std::uint32_t n)
{
    std::vector<driver::DesignPoint> points;
    for (std::uint32_t i = 0; i < n; ++i) {
        auto cfg = core::makeSystemConfig("cwsp");
        cfg.scheme.pbCapacity = 10 + 8 * i;
        points.push_back(driver::DesignPoint{app, cfg});
    }
    return points;
}

std::vector<core::RunResult>
interpretedResults(const std::vector<driver::DesignPoint> &points)
{
    auto cfg = memOnly(1);
    cfg.useStreamReplay = false;
    driver::BatchRunner runner(cfg);
    auto rs = runner.runAll(points);
    EXPECT_EQ(runner.stats().replayedRuns, 0u);
    return rs;
}

void
expectSameStats(const driver::BatchStats &a, const driver::BatchStats &b)
{
    EXPECT_EQ(a.simulated, b.simulated);
    EXPECT_EQ(a.memoryHits, b.memoryHits);
    EXPECT_EQ(a.diskHits, b.diskHits);
    EXPECT_EQ(a.modulesCompiled, b.modulesCompiled);
    EXPECT_EQ(a.moduleCacheHits, b.moduleCacheHits);
    EXPECT_EQ(a.streamsRecorded, b.streamsRecorded);
    EXPECT_EQ(a.streamCacheHits, b.streamCacheHits);
    EXPECT_EQ(a.replayedRuns, b.replayedRuns);
}

} // namespace

TEST(StreamPolicy, SingleUsePointRecordsNothing)
{
    auto points = variantsOf(tinyApp("t-single", 70), 1);
    driver::BatchRunner runner(memOnly(1));
    auto r = runner.run(points[0]);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 1u);
    EXPECT_EQ(st.streamsRecorded, 0u);
    EXPECT_EQ(st.replayedRuns, 0u);
    expectSameResult(interpretedResults(points)[0], r);
}

TEST(StreamPolicy, RepeatedProgramRecordsOnceThenReplays)
{
    constexpr std::uint32_t k = 4;
    auto points = variantsOf(tinyApp("t-reuse", 70), k);
    driver::BatchRunner runner(memOnly(1));
    auto rs = runner.runAll(points);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, k);
    EXPECT_EQ(st.streamsRecorded, 1u);
    EXPECT_EQ(st.streamCacheHits, k - 2);
    EXPECT_EQ(st.replayedRuns, k - 1);
    auto want = interpretedResults(points);
    for (std::size_t i = 0; i < k; ++i) {
        SCOPED_TRACE(i);
        expectSameResult(want[i], rs[i]);
    }
}

TEST(StreamPolicy, StatsRepeatAcrossJobsAndSubmissionOrder)
{
    // Programs used once, twice and three times.
    std::vector<driver::DesignPoint> points;
    std::uint64_t iters = 50;
    for (std::uint32_t uses : {1, 2, 3, 1, 3}) {
        auto vs = variantsOf(tinyApp("t-order", iters++), uses);
        points.insert(points.end(), vs.begin(), vs.end());
    }
    auto reversed = points;
    std::reverse(reversed.begin(), reversed.end());

    driver::BatchRunner seq(memOnly(1));
    auto want = seq.runAll(points);
    EXPECT_EQ(seq.stats().replayedRuns, 5u);
    EXPECT_EQ(seq.stats().streamsRecorded, 3u);
    for (const auto *order : {&points, &reversed}) {
        for (unsigned jobs : {1u, 4u}) {
            SCOPED_TRACE(std::string(order == &points ? "fwd" : "rev") +
                         " jobs=" + std::to_string(jobs));
            driver::BatchRunner runner(memOnly(jobs));
            auto rs = runner.runAll(*order);
            expectSameStats(seq.stats(), runner.stats());
            for (std::size_t i = 0; i < rs.size(); ++i) {
                std::size_t j =
                    order == &points ? i : rs.size() - 1 - i;
                expectSameResult(want[j], rs[i]);
            }
        }
    }
}

TEST(StreamPolicy, PreRecordedStreamLeavesPathCountsUnchanged)
{
    auto app = tinyApp("t-prerec", 70);
    auto points = variantsOf(app, 3);
    driver::BatchRunner runner(memOnly(1));
    auto stream = runner.streamFor(app, points[0].config.compiler,
                                   points[0].entry, points[0].maxInstrs);
    ASSERT_TRUE(stream);
    runner.runAll(points);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 3u);
    EXPECT_EQ(st.replayedRuns, 2u);
    EXPECT_EQ(st.streamsRecorded, 1u);
    EXPECT_EQ(st.streamCacheHits, 2u);
}

TEST(StreamPolicy, ClearMemoryCachesForgetsDemand)
{
    auto points = variantsOf(tinyApp("t-clear", 70), 2);
    driver::BatchRunner runner(memOnly(1));
    runner.run(points[0]);
    runner.clearMemoryCaches();
    runner.run(points[1]);
    auto st = runner.stats();
    EXPECT_EQ(st.simulated, 2u);
    EXPECT_EQ(st.replayedRuns, 0u);
    EXPECT_EQ(st.streamsRecorded, 0u);
    // Without the clear, the second point would have replayed.
    runner.run(points[0]);
    EXPECT_EQ(runner.stats().replayedRuns, 1u);
}

namespace {

/** Sets an environment variable for one scope, then restores it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            old_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (old_)
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

std::size_t
occurrences(const std::string &text, const std::string &word)
{
    std::size_t n = 0;
    for (auto p = text.find(word); p != std::string::npos;
         p = text.find(word, p + 1))
        ++n;
    return n;
}

} // namespace

TEST(CacheSizeEnv, AcceptsOnlyPositiveIntegers)
{
    // A variable of its own: the warning fires once per variable, and
    // the tests below count it for the real ones.
    const char *var = "CWSP_TEST_CACHE_MB";
    {
        ScopedEnv env(var, "12");
        EXPECT_EQ(envCacheMb(var), 12u);
    }
    for (const char *junk : {"12abc", "abc", "-1", "0", " 12", "12 ",
                             "99999999999999999999999"}) {
        SCOPED_TRACE(junk);
        ScopedEnv env(var, junk);
        EXPECT_EQ(envCacheMb(var), 256u);
    }
    ScopedEnv unset(var, "");
    EXPECT_EQ(envCacheMb(var), 256u);
}

TEST(CacheSizeEnv, StreamCacheJunkWarnsOnceNamingTheVariable)
{
    ScopedEnv env("CWSP_STREAM_CACHE_MB", "12abc");
    ::testing::internal::CaptureStderr();
    {
        driver::BatchRunner a(memOnly(1));
        driver::BatchRunner b(memOnly(1));
    }
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(occurrences(err, "CWSP_STREAM_CACHE_MB"), 1u) << err;
}

TEST(CacheSizeEnv, CheckpointCacheJunkWarnsOnceAndUsesDefault)
{
    constexpr std::size_t kMiB = 1024 * 1024;
    {
        ScopedEnv env("CWSP_CKPT_CACHE_MB", "12");
        EXPECT_EQ(core::CheckpointCache::defaultCapBytes(), 12 * kMiB);
    }
    ScopedEnv env("CWSP_CKPT_CACHE_MB", "-1");
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(core::CheckpointCache::defaultCapBytes(), 256 * kMiB);
    EXPECT_EQ(core::CheckpointCache(0).capBytes(), 256 * kMiB);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(occurrences(err, "CWSP_CKPT_CACHE_MB"), 1u) << err;
}

TEST(ConfigSerial, CanonicalKeyIsDeterministic)
{
    auto cfg = core::makeSystemConfig("capri");
    EXPECT_EQ(core::systemConfigKey(cfg),
              core::systemConfigKey(cfg));
    auto other = cfg;
    other.hierarchy.tech.readCycles += 1;
    EXPECT_NE(core::systemConfigKey(cfg),
              core::systemConfigKey(other));
}

TEST(BenchUtil, GmeanOfEmptyBucketIsNaNNotZero)
{
    EXPECT_TRUE(std::isnan(bench::gmean({})));
    EXPECT_DOUBLE_EQ(bench::gmean({2.0, 8.0}), 4.0);
    EXPECT_DOUBLE_EQ(bench::gmean({3.0}), 3.0);
}
