/**
 * @file
 * Recovery-latency observability reports. Consumes the fault
 * campaign's stats JSON (the "recovery" section written by
 * fault::CampaignReport::writeJson) and produces the per-scheme
 * recovery-latency vs. runtime-overhead Pareto table behind
 * cwsp_analyze --recovery-report, in JSON and markdown. Also home to
 * the Chrome-trace validator (--validate-trace / ci_check telemetry
 * smoke) and the telemetry health warnings cwsp_analyze prints when
 * a stats file records trace drops or checkpoint-cache fallbacks.
 */

#ifndef CWSP_OBS_RECOVERY_REPORT_HH
#define CWSP_OBS_RECOVERY_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cwsp::obs {

/** Recovery phase count (mirrors core::RecoveryPhase). */
constexpr std::size_t kReportPhases = 5;

/** One scheme's row of the recovery Pareto table. */
struct RecoveryParetoRow
{
    std::string scheme;
    std::uint64_t crashes = 0;
    double meanRecoveryCycles = 0.0;
    double maxRecoveryCycles = 0.0;
    double meanLostWork = 0.0;
    /** Gmean fault-free runtime vs. baseline; 0 = unavailable. */
    double runtimeOverhead = 0.0;
    /** Cycle totals per phase, core::RecoveryPhase order. */
    double phaseCycles[kReportPhases] = {0, 0, 0, 0, 0};
    /**
     * Another scheme has both lower mean recovery latency and lower
     * runtime overhead (one strictly). Rows with unavailable
     * overhead never dominate and are never dominated.
     */
    bool dominated = false;
};

/** The assembled Pareto report. */
struct RecoveryReport
{
    std::vector<RecoveryParetoRow> rows; ///< figure scheme order
};

/**
 * Build the report from a campaign stats JSON document (the file
 * written by cwsp_faultcampaign --json / --stats-json). Returns
 * false and sets @p error when the document does not parse or holds
 * no "recovery" section.
 */
bool buildRecoveryReport(const std::string &campaign_json,
                         RecoveryReport &out, std::string &error);

/** Machine-readable form (rows keyed by "name" for the flattener). */
void writeRecoveryReportJson(std::ostream &os,
                             const RecoveryReport &report);

/** Markdown Pareto table, frontier rows starred. */
void writeRecoveryReportMarkdown(std::ostream &os,
                                 const RecoveryReport &report);

/**
 * Telemetry health warnings over a flattened metric map
 * (flattenMetricsJson): any metric path ending in "trace_drops" or
 * "dropped" with a positive value (the trace ring truncated), and
 * any "fallbacks" counter with a positive value (checkpoint-cache
 * evictions degraded a sweep to from-scratch execution). One
 * human-readable line per finding.
 */
std::vector<std::string>
telemetryWarnings(const std::map<std::string, double> &metrics);

/** Outcome of one Chrome-trace validation. */
struct TraceValidation
{
    std::size_t events = 0;        ///< traceEvents entries
    std::size_t counterEvents = 0; ///< "ph":"C" samples
    std::size_t counterTracks = 0; ///< distinct (name, tid) series
    double dropped = 0; ///< otherData.dropped: events the ring lost
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

/**
 * Validate a Chrome/Perfetto trace document: it must parse, every
 * traceEvents entry must carry a ts, and every counter series
 * ("ph":"C", keyed by (name, tid)) must be monotone non-decreasing
 * in time. Returns false and sets @p error only on a parse failure;
 * semantic findings land in @p out.errors.
 */
bool validateChromeTrace(const std::string &json, TraceValidation &out,
                         std::string &error);

} // namespace cwsp::obs

#endif // CWSP_OBS_RECOVERY_REPORT_HH
