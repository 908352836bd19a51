/**
 * @file
 * What every workload hands the driver: one pass of its input list,
 * timed, checked, and counted.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "reference.hh"
#include "spans.hh"

namespace perfbench {

/**
 * Exact counts of one pass: modeled work and cache/checkpoint
 * ledgers. Passes over the same inputs must produce identical counts;
 * the driver fails the run when they do not.
 */
using Counts = std::map<std::string, std::uint64_t>;

/** Outcome of one pass over a workload's inputs. */
struct Pass
{
    double wallS = 0;
    double cpuS = 0;
    /** Peak RSS during the pass (high-water mark reset before it). */
    double peakRssMb = 0;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    /** Host latency of each op, ms (sweeps; empty for the campaign). */
    std::vector<double> opMs;
    /** Simulated committed instructions of the pass's ops. */
    std::uint64_t simInstrs = 0;
    /** cWSP-over-baseline gmean slowdown the pass measured (0: none). */
    double cwspGmean = 0;
    Counts counts;
    /**
     * Counts that legitimately depend on thread scheduling (reported,
     * not required to repeat).
     */
    Counts schedCounts;
    /** Traced pass only: derived layer metrics (inclusive times etc.). */
    std::map<std::string, double> traced;
    /** Traced pass only: every span recorded. */
    std::vector<Span> spans;
};

/** Where a workload reads its references and keeps its working files. */
struct Env
{
    std::string refDir;
    std::string workDir;
    std::uint64_t seed = 1;
    unsigned jobs = 1;
};

/** A set-up workload, ready to run passes. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** One pass; @p tracer non-null records spans (the traced run). */
    virtual Pass run(Tracer *tracer) = 0;
};

/**
 * Report (on stderr) every count of @p other that differs from
 * @p base, or is missing from it unless @p onlyShared; returns how
 * many. Each is a failed check: exact counts must repeat.
 */
std::size_t countMismatches(const Counts &base, const Counts &other,
                            const std::string &what, bool onlyShared);

/**
 * Set up @p name ("paper_sweep", ...); null when the name is unknown.
 * Every set-up starts with modelCanary(), so a build whose model
 * drifted fails before any pass is timed.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const Env &env);

/**
 * Run the design apps under the baseline and cwsp presets in a child
 * process, check each against the paper reference (throws on a
 * difference) and return their cwsp gmean slowdown.
 */
double modelCanary(const Env &env);

std::unique_ptr<Workload> makeSweepWorkload(const std::string &name,
                                            const Env &env,
                                            double canaryGmean);
std::unique_ptr<Workload> makeCrashWorkload(const Env &env);

/** The paper's reported cWSP gmean slowdown over baseline. */
constexpr double kPaperCwspGmean = 1.06;

/**
 * Capture the per-op references (paper sweep and full design grid)
 * into @p dir at the current code. Returns false on any failure.
 */
bool captureReferences(const std::string &dir, unsigned jobs);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
