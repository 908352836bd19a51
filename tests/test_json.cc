/**
 * @file
 * Byte-for-byte pins of every JSON artefact the simulator writes:
 * the stats export (with and without a counter sampler), the Chrome
 * trace, the fault-campaign report (single-threaded and concurrent),
 * the what-if + sensitivity report, the recovery Pareto report built
 * from the campaign, and a create-then-append trajectory. Each is
 * generated from a small deterministic run and compared with its
 * file under tests/golden/. The rest covers the JSON layer itself:
 * the writer's escaping, the reader's grammar, depth cap and \u
 * decoding, and a seeded mutation loop over the goldens.
 *
 * Regenerate the goldens (only when an output change is intended):
 *   CWSP_UPDATE_GOLDEN=1 build/tests/test_json
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unistd.h>

#include "core/config.hh"
#include "core/whole_system_sim.hh"
#include "driver/batch_runner.hh"
#include "fault/campaign.hh"
#include "obs/baseline_diff.hh"
#include "obs/recovery_report.hh"
#include "obs/sensitivity.hh"
#include "obs/whatif_profiler.hh"
#include "sim/json.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"
#include "workloads/workload.hh"

using namespace cwsp;

namespace {

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/**
 * Compare @p actual with tests/golden/@p name; with
 * CWSP_UPDATE_GOLDEN=1 in the environment, rewrite the golden
 * instead.
 */
void
expectGolden(const std::string &name, const std::string &actual)
{
    const std::filesystem::path path =
        std::filesystem::path(CWSP_GOLDEN_DIR) / name;
    const char *update = std::getenv("CWSP_UPDATE_GOLDEN");
    if (update && std::string(update) == "1") {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << actual;
        ASSERT_TRUE(os.good()) << "cannot write " << path;
        return;
    }
    ASSERT_TRUE(std::filesystem::exists(path)) << "missing " << path;
    const std::string expected = readFile(path);
    if (expected == actual)
        return;
    std::size_t at = 0;
    while (at < expected.size() && at < actual.size() &&
           expected[at] == actual[at])
        ++at;
    ADD_FAILURE() << name << " differs from its golden at byte " << at
                  << " (golden " << expected.size() << " bytes, got "
                  << actual.size() << "):\n  golden: "
                  << expected.substr(at, 80)
                  << "\n  actual: " << actual.substr(at, 80);
}

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

std::string
statsExport(const std::string &app, const std::string &scheme,
            bool sampled)
{
    auto cfg = core::makeSystemConfig(scheme);
    auto mod = workloads::buildApp(workloads::appByName(app),
                                   cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim::CounterSampler sampler(core::defaultSamplePeriod(cfg));
    if (sampled)
        sim.attachSampler(&sampler);
    sim.run("main");
    std::ostringstream os;
    sim.exportStatsJson(os);
    return os.str();
}

/** Campaign report shared by the campaign and recovery pins. */
const std::string &
fftCampaignJson()
{
    static const std::string json = [] {
        fault::CampaignOptions opt;
        opt.apps = {"fft"};
        opt.schemes = {"baseline", "cwsp", "capri"};
        opt.pointsPerKind = 1;
        opt.jobs = 1;
        std::ostringstream os;
        fault::runCampaign(opt).writeJson(os);
        return os.str();
    }();
    return json;
}

/** Scratch file removed when the test ends. */
struct TempPath
{
    std::filesystem::path path;
    explicit TempPath(const std::string &name)
        : path(std::filesystem::path(::testing::TempDir()) /
               ("cwsp-json-" + std::to_string(::getpid()) + "-" +
                name))
    {
        std::filesystem::remove(path);
    }
    ~TempPath() { std::filesystem::remove(path); }
};

void
writeText(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << text;
}

} // namespace

TEST(JsonGolden, StatsExport)
{
    expectGolden("stats_fft_cwsp.json",
                 statsExport("fft", "cwsp", false));
}

TEST(JsonGolden, StatsExportWithTimeSeries)
{
    expectGolden("stats_fft_cwsp_sampled.json",
                 statsExport("fft", "cwsp", true));
}

TEST(JsonGolden, ChromeTrace)
{
    // A ring smaller than the run's event count, so the export also
    // carries a nonzero drop ledger.
    auto cfg = core::makeSystemConfig("cwsp");
    auto mod = workloads::buildApp(tinyApp("tiny", 64), cfg.compiler);
    core::WholeSystemSim sim(*mod, cfg);
    sim::TraceBuffer trace(1 << 9, sim::kTraceAll);
    sim.attachTrace(&trace);
    sim::CounterSampler sampler(core::defaultSamplePeriod(cfg));
    sim.attachSampler(&sampler);
    sim.run("main");
    ASSERT_GT(trace.dropped(), 0u);
    std::ostringstream os;
    trace.exportChromeJson(os, &sampler);
    expectGolden("trace_tiny_cwsp.json", os.str());

    std::ostringstream bare;
    trace.exportChromeJson(bare, nullptr);
    expectGolden("trace_tiny_cwsp_bare.json", bare.str());
}

TEST(JsonGolden, CampaignReport)
{
    expectGolden("campaign_fft.json", fftCampaignJson());
}

TEST(JsonGolden, ConcurrentCampaignReport)
{
    fault::CampaignOptions opt;
    opt.apps = {"cqueue"};
    opt.schemes = {"cwsp"};
    opt.pointsPerKind = 1;
    opt.numSchedules = 2;
    opt.jobs = 1;
    std::ostringstream os;
    fault::runCampaign(opt).writeJson(os);
    expectGolden("campaign_cqueue.json", os.str());
}

TEST(JsonGolden, RecoveryReport)
{
    obs::RecoveryReport report;
    std::string error;
    ASSERT_TRUE(
        obs::buildRecoveryReport(fftCampaignJson(), report, error))
        << error;
    std::ostringstream os;
    obs::writeRecoveryReportJson(os, report);
    expectGolden("recovery_report.json", os.str());
}

TEST(JsonGolden, WhatIfWithSensitivity)
{
    driver::BatchConfig bc;
    bc.jobs = 1;
    bc.useDiskCache = false;
    driver::BatchRunner runner(bc);
    const std::vector<std::string> schemes = {"baseline", "cwsp",
                                              "capri"};
    const std::vector<workloads::AppProfile> apps = {
        tinyApp("tinywi", 200)};
    auto report = obs::runWhatIf(runner, schemes, apps, {});
    auto sens = obs::runSensitivity(runner, schemes, apps, {});
    report.batch = runner.stats();
    std::ostringstream os;
    obs::writeWhatIfJson(os, report, &sens);
    expectGolden("whatif_tiny.json", os.str());

    std::ostringstream plain;
    obs::writeWhatIfJson(plain, report, nullptr);
    expectGolden("whatif_tiny_nosens.json", plain.str());
}

TEST(JsonGolden, TrajectoryCreateThenAppend)
{
    TempPath summary("summary.json");
    TempPath traj("trajectory.json");
    writeText(summary.path,
              "{\"context\": {\"host\": \"box\", \"num_cpus\": 4},\n"
              " \"wall_clock_s\": 12,\n"
              " \"binaries\": [\n"
              "  {\"name\": \"bench_simspeed\", \"benchmarks\": [\n"
              "   {\"name\": \"simspeed/aggregate\", \"sims_per_sec\": "
              "131.25, \"ns_per_instr\": 41.5, \"real_time\": 7.5},\n"
              "   {\"name\": \"simspeed/crash_sweep/cwsp\", "
              "\"sims_per_sec\": 1055, \"iterations\": 3}]}],\n"
              " \"total_cases\": 2,\n"
              " \"fault_campaign\": {\"cases_run\": 804, "
              "\"recovery\": [{\"name\": \"cwsp\", \"latency_mean\": "
              "1234.5678901234}]}}\n");

    std::string error;
    obs::TrajectoryOptions first;
    first.label = "first \"quoted\"";
    first.date = "2026-01-02";
    ASSERT_TRUE(obs::appendTrajectory(traj.path.string(),
                                      summary.path.string(), first,
                                      error))
        << error;
    expectGolden("trajectory_created.json", readFile(traj.path));

    obs::TrajectoryOptions second;
    second.label = "second";
    ASSERT_TRUE(obs::appendTrajectory(traj.path.string(),
                                      summary.path.string(), second,
                                      error))
        << error;
    obs::TrajectoryOptions none;
    none.label = "empty-selection";
    none.keepSubstrings = {"no_such_metric"};
    ASSERT_TRUE(obs::appendTrajectory(traj.path.string(),
                                      summary.path.string(), none,
                                      error))
        << error;
    expectGolden("trajectory_appended.json", readFile(traj.path));
}

// The reader's view of the pinned artefacts: every numeric leaf of
// the campaign report and the trajectory, flattened to dotted paths
// with name-keyed array entries.
TEST(JsonGolden, FlattenedCampaignMetrics)
{
    std::ostringstream os;
    os.precision(17);
    for (const auto &[metric, value] :
         obs::flattenMetricsJson(fftCampaignJson()))
        os << metric << " " << value << "\n";
    expectGolden("campaign_fft_flat.txt", os.str());
}

// ---------------------------------------------------------------
// The writer and the streaming reader
// ---------------------------------------------------------------

TEST(JsonWriter, EscapesControlCharactersAsUnicode)
{
    std::ostringstream os;
    json::Writer w(os);
    w.beginArray().value(std::string("a\x01" "b\r\"\\\x1f", 7));
    w.value(std::numeric_limits<double>::infinity()).end();
    EXPECT_EQ(os.str(), "[\"a\\u0001b\\r\\\"\\\\\\u001f\",null]");

    const std::string text = os.str();
    json::Reader r(text);
    ASSERT_EQ(r.next(), json::Token::ArrayBegin);
    ASSERT_EQ(r.next(), json::Token::String);
    EXPECT_EQ(r.text(), std::string("a\x01" "b\r\"\\\x1f", 7));
    EXPECT_EQ(r.next(), json::Token::Null);
    EXPECT_EQ(r.next(), json::Token::ArrayEnd);
    EXPECT_EQ(r.next(), json::Token::End);
}

TEST(JsonReader, DecodesUnicodeEscapesToUtf8)
{
    json::Reader r(R"(["\u0041\u00e9\u20AC", "\ud83d\ude00", "\udc00"])");
    ASSERT_EQ(r.next(), json::Token::ArrayBegin);
    ASSERT_EQ(r.next(), json::Token::String);
    EXPECT_EQ(r.text(), "A\xc3\xa9\xe2\x82\xac");
    // Surrogates, paired or lone, decode as U+FFFD.
    ASSERT_EQ(r.next(), json::Token::String);
    EXPECT_EQ(r.text(), "\xef\xbf\xbd\xef\xbf\xbd");
    ASSERT_EQ(r.next(), json::Token::String);
    EXPECT_EQ(r.text(), "\xef\xbf\xbd");
}

TEST(JsonReader, EnforcesTheNumberGrammar)
{
    for (const char *bad : {"-", "1.2.3", "1e", "01", "+1", "1.", ".5",
                            "-01", "1e+", "0x10", "--1", "1e5.0"}) {
        EXPECT_THROW(obs::flattenMetricsJson(bad), std::runtime_error)
            << bad;
        EXPECT_THROW(obs::flattenMetricsJson(std::string("{\"a\": ") +
                                             bad + "}"),
                     std::runtime_error)
            << bad;
    }
    const std::pair<const char *, double> good[] = {
        {"0", 0.0},       {"-0", 0.0},    {"12", 12.0},
        {"-1.5e-3", -1.5e-3}, {"1E+2", 100.0}, {"2.50", 2.5}};
    for (const auto &[text, value] : good)
        EXPECT_EQ(obs::flattenMetricsJson(text).at(""), value) << text;
}

TEST(JsonReader, DeepNestingThrowsInsteadOfOverflowingTheStack)
{
    std::string objects;
    for (int i = 0; i < 200000; ++i)
        objects += "{\"a\":";
    for (const std::string &deep :
         {std::string(200000, '['), objects}) {
        EXPECT_THROW(obs::flattenMetricsJson(deep), std::runtime_error);
        obs::TraceValidation v;
        std::string error;
        EXPECT_FALSE(obs::validateChromeTrace(deep, v, error));
        EXPECT_NE(error.find("nesting"), std::string::npos) << error;
        obs::RecoveryReport report;
        EXPECT_FALSE(obs::buildRecoveryReport(deep, report, error));
    }
    // The cap itself: kMaxDepth levels parse, one more does not.
    const std::size_t cap = json::Reader::kMaxDepth;
    EXPECT_NO_THROW(obs::flattenMetricsJson(std::string(cap, '[') +
                                            std::string(cap, ']')));
    EXPECT_THROW(obs::flattenMetricsJson(std::string(cap + 1, '[') +
                                         std::string(cap + 1, ']')),
                 std::runtime_error);
}

TEST(JsonReader, ValidatorReadsTheDropLedger)
{
    obs::TraceValidation v;
    std::string error;
    ASSERT_TRUE(obs::validateChromeTrace(
        readFile(std::filesystem::path(CWSP_GOLDEN_DIR) /
                 "trace_tiny_cwsp.json"),
        v, error))
        << error;
    EXPECT_TRUE(v.ok());
    EXPECT_EQ(v.dropped, 1265.0);
    EXPECT_GT(v.counterTracks, 0u);
}

// Seeded mutation loop over the pinned artefacts: byte flips,
// truncations and duplicated brackets. Every mutant must parse or
// throw std::runtime_error (any other exception, or a crash, fails);
// the validator must report, not throw.
TEST(JsonReader, MutatedArtefactsParseOrThrow)
{
    std::vector<std::string> corpus;
    for (const char *name :
         {"stats_fft_cwsp.json", "campaign_fft.json",
          "recovery_report.json", "whatif_tiny.json",
          "trajectory_appended.json", "trace_tiny_cwsp.json"}) {
        std::string text =
            readFile(std::filesystem::path(CWSP_GOLDEN_DIR) / name);
        ASSERT_NO_THROW(obs::flattenMetricsJson(text)) << name;
        corpus.push_back(std::move(text));
    }
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto rnd = [&state](std::size_t n) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return static_cast<std::size_t>(state % n);
    };
    const char kBytes[] = "{}[],:\"\\-+.eE0123456789 tfnu\x01\xff";
    std::size_t parsed = 0, rejected = 0;
    for (int i = 0; i < 3000; ++i) {
        std::string m = corpus[rnd(corpus.size())];
        switch (rnd(3)) {
          case 0:
            for (int k = 0; k < 3; ++k)
                m[rnd(m.size())] = kBytes[rnd(sizeof kBytes - 1)];
            break;
          case 1:
            m.resize(rnd(m.size()));
            break;
          default: {
            const std::size_t at = rnd(m.size());
            m.insert(at, std::string(1 + rnd(8), "{}[]"[rnd(4)]));
          }
        }
        try {
            obs::flattenMetricsJson(m);
            ++parsed;
        } catch (const std::runtime_error &) {
            ++rejected;
        }
        obs::TraceValidation v;
        std::string error;
        obs::validateChromeTrace(m, v, error);
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}
