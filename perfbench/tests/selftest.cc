/**
 * @file
 * Tests of the benchmark's own arithmetic and checks:
 *  - the tail percentile keeps at least ten samples beyond it;
 *  - a span's self time is its duration minus its children's cover;
 *  - per-layer self times plus unattributed time sum to the budget;
 *  - an exact count that does not repeat is reported as a failure;
 *  - one altered reference entry makes a pass report a failed op.
 *
 *   perfbench_selftest REF_DIR WORK_DIR
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>

#include "bench.hh"
#include "stats_util.hh"
#include "workloads.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok)
        ++failures;
}

void
testTailPercentile()
{
    for (std::size_t n : {5u, 11u, 19u, 20u, 100u, 228u, 684u, 1000u,
                          20000u}) {
        std::vector<double> v(n);
        std::iota(v.begin(), v.end(), 1.0); // 1..n
        const Tail t = tailPercentile(v);
        std::size_t above = 0;
        for (double x : v)
            above += x > t.value ? 1 : 0;
        if (n < 20) {
            expect(t.percentile == 100 && t.value == static_cast<double>(n),
                   "tail of " + std::to_string(n) + " samples is the max");
            continue;
        }
        expect(above >= 10 && above == t.beyond,
               "p" + std::to_string(t.percentile) + " of " +
                   std::to_string(n) + " samples leaves " +
                   std::to_string(above) + " >= 10 beyond");
    }
    // Highest qualifying percentile: 228 samples -> p95 (11 beyond),
    // not p99 (2 beyond); 1000 -> p99 (10 beyond).
    std::vector<double> v228(228), v1000(1000);
    std::iota(v228.begin(), v228.end(), 1.0);
    std::iota(v1000.begin(), v1000.end(), 1.0);
    expect(tailPercentile(v228).percentile == 95, "228 samples -> p95");
    expect(tailPercentile(v1000).percentile == 99, "1000 samples -> p99");
    // The percentile is chosen on one pass's sample count, so runs of
    // 2 and 5 passes of 228 ops both report p95.
    std::vector<double> v456(456);
    std::iota(v456.begin(), v456.end(), 1.0);
    expect(tailPercentile(v456, 228).percentile == 95 &&
               tailPercentile(v1000, 228).percentile == 95,
           "percentile follows the per-pass basis");
    expect(median({3, 1, 2, 10}) == 2.5, "median of an even set");
}

Span
span(const char *name, std::int64_t s, std::int64_t e, std::int64_t parent,
     std::uint32_t thread = 0)
{
    Span x;
    x.name = name;
    x.start = s;
    x.end = e;
    x.parent = parent;
    x.thread = thread;
    return x;
}

void
testSelfTimes()
{
    // op [0,100) with children compiler [10,30), interp [30,60) which
    // has a child timing [40,50), and two overlapping children of the
    // last span to check the union rule.
    std::vector<Span> s = {
        span("op", 0, 100, -1),       span("compiler", 10, 30, 0),
        span("interp", 30, 60, 0),    span("timing", 40, 50, 2),
        span("fault.case", 200, 300, -1, 1),
        span("checker.dl", 210, 250, 4, 1),
        span("checker.globals", 240, 280, 4, 1),
    };
    const auto self = selfTimes(s);
    expect(self[0] == 100 - 20 - 30, "op self = span - covered children");
    expect(self[2] == 30 - 10, "interp self excludes its timing child");
    expect(self[3] == 10, "leaf self = its duration");
    expect(self[4] == 100 - 70, "overlapping children counted once");

    // Properly nested spans, as one thread records them.
    s[6].start = 250;
    const std::vector<std::string> layers = {
        "compiler", "interp", "timing", "fault.case", "checker.dl",
        "checker.globals"};
    const std::int64_t budget = 2 * 400; // two threads, 400 ns of wall
    const LayerSplit split = splitLayers(s, layers, budget);
    std::int64_t sum = split.unattributedNs;
    for (const auto &[k, v] : split.selfNs)
        sum += v;
    expect(sum == budget, "layer self times + unattributed = budget");
    expect(split.unattributedNs == (budget - 100 - 100) + 50,
           "unattributed = time outside roots + non-layer self");
    expect(split.totalNs.at("interp") == 30 && split.calls.at("timing") == 1,
           "inclusive time and calls per layer");
}

void
testCountRepeat()
{
    const Counts base = {{"sim.instrs", 100}, {"ckpt.captures", 7}};
    Counts same = base, moved = base, extra = base;
    moved["sim.instrs"] = 101;
    extra["interp.steps"] = 5;
    expect(countMismatches(base, same, "test", false) == 0,
           "repeated counts pass");
    expect(countMismatches(base, moved, "test", false) == 1,
           "a count that did not repeat is a failure");
    expect(countMismatches(base, extra, "test", false) == 1 &&
               countMismatches(base, extra, "test", true) == 0,
           "traced-only counts are skipped when comparing shared keys");
}

/** A pass against an altered reference reports exactly that op. */
void
testAlteredReference(const std::string &refDir, const std::string &workDir)
{
    const std::string alt = workDir + "/selftest-ref";
    fs::create_directories(alt);
    fs::copy_file(refDir + "/paper_sweep.ref", alt + "/paper_sweep.ref",
                  fs::copy_options::overwrite_existing);
    Reference grid;
    std::string err;
    expect(loadReference(refDir + "/design_grid.ref", grid, err),
           "design grid reference loads");
    const std::uint64_t seed = 11;
    const std::string victim = designSweepOps(seed).front().label;
    auto write = [&](bool alter) {
        Reference r = grid;
        if (alter)
            r[victim] = "1 " + r[victim]; // shifts every field
        std::ofstream out(alt + "/design_grid.ref");
        writeReference(out, r);
    };
    Env env{alt, workDir + "/selftest-work", seed, 2};
    fs::create_directories(env.workDir);

    write(false);
    Pass clean = makeWorkload("design_sweep", env)->run(nullptr);
    expect(clean.ops > 0 && clean.failed == 0,
           "unaltered reference: fail_frac 0 over " +
               std::to_string(clean.ops) + " ops");
    write(true);
    Pass bad = makeWorkload("design_sweep", env)->run(nullptr);
    expect(bad.failed == 1,
           "one altered entry (" + victim + "): fail_frac " +
               std::to_string(static_cast<double>(bad.failed) /
                              static_cast<double>(bad.ops)));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::cerr << "usage: perfbench_selftest REF_DIR WORK_DIR\n";
        return 2;
    }
    testTailPercentile();
    testSelfTimes();
    testCountRepeat();
    testAlteredReference(argv[1], argv[2]);
    std::cout << (failures ? "FAILED " : "passed ") << failures
              << " failure(s)\n";
    return failures ? 1 : 0;
}
