/**
 * @file
 * Fault-injection campaign front-end. Enumerates trace-derived crash
 * points for every (app, scheme) pair, decorates them into single,
 * nested, and media-faulted crash schedules, runs each case
 * differentially against a golden run across a worker pool, shrinks
 * failures to minimal repros, and writes a machine-readable report.
 *
 *   cwsp_faultcampaign --app bzip2,radix
 *   cwsp_faultcampaign --app tpcc --scheme cwsp,ido --points 4
 *   cwsp_faultcampaign --app bzip2 --json report.json
 *
 * Exit status is 0 iff every case passed (zero unexplained
 * divergences and no silently-corrupting media fault).
 */

#include <cstdio>
#include <string>

#include "cli.hh"
#include "fault/campaign.hh"
#include "sim/json.hh"
#include "sim/stats.hh"

using namespace cwsp;

namespace {

/** Everything the command line sets. */
struct Options
{
    fault::CampaignOptions campaign;
    cli::Selection sel;
    std::string jsonPath;
    bool quiet = false;
};

int
runMain(Options &o)
{
    if (o.sel.apps.empty())
        throw cli::UsageError("--app is required");
    o.campaign.apps = o.sel.apps;
    o.campaign.schemes = o.sel.schemes;
    o.campaign.jobs = o.sel.jobs;
    const std::string &json_path = o.jsonPath;
    auto report = fault::runCampaign(o.campaign);

    // With `--json -` the JSON owns stdout; move tables to stderr.
    std::FILE *out = json_path == "-" ? stderr : stdout;
    if (!o.quiet) {
        for (const auto &r : report.cases) {
            std::fprintf(out, "%-52s %s\n", r.c.label().c_str(),
                         r.pass ? "pass"
                                : (r.ran ? "FAIL" : "ERROR"));
        }
    }
    const auto &t = report.totals;
    std::fprintf(
        out,
        "campaign: %zu cases, %zu passed, %zu failed "
        "(%zu shrink runs)\n"
        "  crashes %llu (nested %llu, in-recovery %llu), "
        "replay passes %llu (partial records %llu)\n"
        "  media faults %llu/%llu applied; detected: %llu corrupt "
        "records, %llu stale slots\n"
        "  degradation: %llu torn tails dropped, %llu region "
        "restarts, %llu full restarts; %llu atomic resumes\n",
        report.casesRun, report.casesPassed, report.failures.size(),
        report.shrinkRuns, (unsigned long long)t.crashesInjected,
        (unsigned long long)t.nestedCrashes,
        (unsigned long long)t.recoveryCrashes,
        (unsigned long long)t.undoReplayPasses,
        (unsigned long long)t.partialReplayRecords,
        (unsigned long long)t.faultsApplied,
        (unsigned long long)t.faultsRequested,
        (unsigned long long)t.corruptRecordsDetected,
        (unsigned long long)t.staleSlotsDetected,
        (unsigned long long)t.tornTailsDropped,
        (unsigned long long)t.regionRestarts,
        (unsigned long long)t.fullRestarts,
        (unsigned long long)t.atomicResumes);
    if (report.ckptCache.enabled) {
        const auto &ck = report.ckptCache;
        std::fprintf(
            out,
            "  checkpoint cache: %llu captured, %llu forks, "
            "%llu fallbacks%s, %llu evictions, %.1f MB resident\n",
            (unsigned long long)ck.captures,
            (unsigned long long)ck.forks,
            (unsigned long long)ck.fallbacks, ck.reasonsBrief().c_str(),
            (unsigned long long)ck.evictions,
            (double)ck.bytesResident / (1024.0 * 1024.0));
    }
    for (const auto &f : report.failures) {
        std::fprintf(out, "minimal repro: %s\n  %s\n",
                     f.c.label().c_str(), f.detail.c_str());
    }

    if (!json_path.empty() &&
        !json::writeFile(json_path, [&report](std::ostream &os) {
            report.writeJson(os);
        }))
        return 1;
    if (!o.sel.statsJson.empty()) {
        StatsRegistry reg;
        report.fillStats(reg);
        if (!json::writeFile(o.sel.statsJson, [&reg](std::ostream &os) {
                reg.exportJson(os);
            }))
            return 1;
    }
    return report.allPassed() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    o.sel.concurrentApps = true;
    fault::CampaignOptions &c = o.campaign;
    const cli::Table table = {
        cli::selection(o.sel, "--app"),
        cli::selection(o.sel, "--scheme"),
        cli::number("--points", "N",
                    "crash points kept per kind per (app, scheme) pair\n"
                    "(default 3)",
                    c.pointsPerKind, 1, 1000000),
        cli::flag("--no-nested", "skip nested-crash schedules",
                  c.nested, false),
        cli::flag("--no-media", "skip torn/bit-flip/stale-slot faults",
                  c.mediaFaults, false),
        cli::flag("--no-shrink", "report failures unshrunk", c.shrink,
                  false),
        cli::flag("--no-fork",
                  "re-execute every pre-crash prefix instead of\n"
                  "forking from golden-run checkpoints",
                  c.forkCheckpoints, false),
        cli::number("--seed", "N",
                    "base seed of the deterministic interleaving\n"
                    "schedules swept for concurrent apps (default 1)",
                    c.interleaveSeed, 1),
        cli::number("--schedules", "N",
                    "interleaving schedules per concurrent (app, scheme);\n"
                    "schedule 0 is always the unjittered timing "
                    "(default 2)",
                    c.numSchedules, 1, 65536),
        cli::flag("--seed-cas-bug",
                  "inject the seeded CAS-ordering bug into concurrent\n"
                  "apps (checker self-test; the campaign must fail)",
                  c.seedCasBug),
        cli::selection(o.sel, "--jobs"),
        cli::text("--json", "FILE",
                  "write the JSON report (`-` = stdout)", o.jsonPath),
        cli::selection(o.sel, "--stats-json"),
        cli::flag("--quiet", "suppress the per-case table", o.quiet),
    };
    return cli::run(argc, argv, "[options]", table,
                    [&o] { return runMain(o); });
}
