#!/usr/bin/env bash
# Run every figure-reproduction bench binary through the parallel
# batch runner and aggregate their google-benchmark JSON reports into
# one BENCH_summary.json, seeding the perf-trajectory tracking.
# bench_simspeed's cases include the checkpoint-forked crash sweeps
# (simspeed/crash_sweep/cwsp and simspeed/crash_sweep_forked/*); their
# sims_per_sec counters land in the trajectory append below, keyed
# without the binaries[<name>] container prefix so entries line up
# across PRs.
#
# Every case is registered with Iterations(1) (a bar is one full
# simulation), so no --benchmark_min_time is needed; the heavy lifting
# happens in each binary's parallel prefetch pass, which shares the
# persistent result cache across all binaries — the 38-app baseline
# is simulated exactly once for the whole suite, and a second
# invocation of this script re-simulates nothing at all.
#
# Usage:
#   tools/bench_all.sh [extra bench args...]
# Environment:
#   BUILD_DIR  build tree containing bench/ (default: build)
#   JOBS       worker threads per binary (default: nproc)
#   OUT        aggregate output file (default: BENCH_summary.json)
#   TRAJ       perf-trajectory file a headline snapshot of OUT is
#              appended to (default: BENCH_trajectory.json; empty
#              disables the append)
#   TRAJ_LABEL trajectory entry label (default: short git hash)
#   CWSP_CACHE_DIR  persistent result cache location (default:
#                   .cwsp-cache in the working directory)

set -euo pipefail

BUILD_DIR=${BUILD_DIR:-build}
JOBS=${JOBS:-$(nproc)}
OUT=${OUT:-BENCH_summary.json}
TRAJ=${TRAJ-BENCH_trajectory.json}

if ! ls "$BUILD_DIR"/bench/bench_* >/dev/null 2>&1; then
    echo "error: no bench binaries under $BUILD_DIR/bench" \
         "(build first: cmake --build $BUILD_DIR -j)" >&2
    exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Keep the previous summary so the baseline differ can flag metric
# regressions after the new one is written. It lives in a
# subdirectory so the aggregation glob below doesn't scoop it up as a
# bench binary.
prev=
if [ -f "$OUT" ]; then
    mkdir -p "$tmp/previous"
    prev=$tmp/previous/summary.json
    cp "$OUT" "$prev"
fi

# Each step's wall time: "STEP START END" lines (seconds since the
# epoch, nanosecond resolution), folded into the summary as
# wall_clock_s.
steps=$tmp/steps.txt
: > "$steps"
step_done() { echo "$1 $2 $(date +%s.%N)" >> "$steps"; }

for b in "$BUILD_DIR"/bench/bench_*; do
    [ -x "$b" ] || continue
    name=$(basename "$b")
    echo ">> $name (jobs=$JOBS)" >&2
    t0=$(date +%s.%N)
    "$b" --jobs "$JOBS" \
         --benchmark_out="$tmp/$name.json" \
         --benchmark_out_format=json \
         --stats-json "$tmp/$name.stats.json" \
         "$@" > /dev/null
    step_done "$name" "$t0"
done

# Robustness counters ride along with the perf numbers: a bounded
# fault campaign (trace-derived crash points, nested crashes, media
# faults) whose detection/degradation totals are folded into the
# summary, so the perf-trajectory diff also flags a recovery path
# that silently starts degrading harder. The report lives in a
# subdirectory so the aggregation glob below doesn't scoop it up as
# a bench binary.
campaign=
if [ -x "$BUILD_DIR/tools/cwsp_faultcampaign" ]; then
    mkdir -p "$tmp/campaign"
    campaign=$tmp/campaign/report.json
    echo ">> cwsp_faultcampaign (jobs=$JOBS)" >&2
    t0=$(date +%s.%N)
    "$BUILD_DIR"/tools/cwsp_faultcampaign --app fft,bzip2,cqueue \
        --points 1 --schedules 2 --jobs "$JOBS" \
        --json "$campaign" --quiet ||
        echo "bench_all: fault campaign reported failures" \
             "(folded into $OUT)" >&2
    step_done fault_campaign "$t0"
fi

# Counterfactual what-if profile: idealize one resource at a time on
# a small fixed app set and record each scheme's top bottleneck plus
# its most sensitive sizing knob. Folded into the summary (below) so
# the trajectory diff also flags a bottleneck that silently shifts —
# e.g. a path tweak that moves cwsp from path-bound to log-bound.
# Lives in a subdirectory so the aggregation glob doesn't scoop it
# up as a bench binary.
whatif=
if [ -x "$BUILD_DIR/tools/cwsp_analyze" ]; then
    mkdir -p "$tmp/whatif"
    whatif=$tmp/whatif/report.json
    echo ">> cwsp_analyze --whatif (jobs=$JOBS)" >&2
    t0=$(date +%s.%N)
    "$BUILD_DIR"/tools/cwsp_analyze --whatif --scheme all \
        --app fft,bzip2 --jobs "$JOBS" --report-json "$whatif" \
        > /dev/null ||
        { echo "bench_all: what-if profile failed" >&2; whatif=; }
    step_done whatif "$t0"
fi

python3 - "$OUT" "$steps" "${campaign:-none}" "${whatif:-none}" \
    "$tmp"/*.json <<'EOF'
import json
import os
import sys

out_path, steps_path = sys.argv[1], sys.argv[2]
campaign_path = sys.argv[3]
whatif_path = sys.argv[4]
del sys.argv[3:5]
# Per-step wall time in seconds, rounded to the millisecond.
wall = {}
with open(steps_path) as f:
    for line in f:
        step, t0, t1 = line.split()
        wall[step] = round(float(t1) - float(t0), 3)
# The top-level wall_clock_s is the bench binaries' total.
elapsed = round(sum(t for s, t in wall.items()
                    if s.startswith("bench_")), 3)
merged = {"context": None, "wall_clock_s": elapsed, "binaries": []}
stats = {}
for path in sys.argv[3:]:
    with open(path) as f:
        data = json.load(f)
    name = os.path.basename(path)[: -len(".json")]
    if name.endswith(".stats"):
        # Per-binary component statistics (--stats-json): aggregated
        # over the points that binary actually simulated. Cache hits
        # contribute nothing, so an empty object on a warm cache is
        # expected, not an error.
        if data:
            stats[name[: -len(".stats")]] = data
        continue
    if merged["context"] is None:
        merged["context"] = data.get("context", {})
    # "name" keys the entry in flattened metric paths (the baseline
    # differ and trajectory snapshots key array entries by it), so
    # paths stay stable when binaries are added or reordered.
    merged["binaries"].append({
        "name": name,
        "binary": name,
        "wall_clock_s": wall.get(name, 0),
        "benchmarks": data.get("benchmarks", []),
    })
merged["component_stats"] = stats
merged["total_cases"] = sum(
    len(b["benchmarks"]) for b in merged["binaries"])
if campaign_path != "none" and os.path.exists(campaign_path):
    with open(campaign_path) as f:
        report = json.load(f)
    # Keep the scalar health counters (cases run/passed plus the
    # FaultStats detection/degradation ledger); the per-case detail
    # stays in the campaign's own report.
    merged["fault_campaign"] = {
        "cases_run": report.get("cases_run", 0),
        "cases_passed": report.get("cases_passed", 0),
        "failure_count": report.get("failure_count", 0),
        "totals": report.get("totals", {}),
        "wall_clock_s": wall.get("fault_campaign", 0),
    }
    # Per-scheme recovery scalars (not the bucket arrays): entries
    # stay keyed by "name" so flattened trajectory paths look like
    # fault_campaign.recovery[cwsp].latency_mean — a recovery-latency
    # regression shows up in the same diff as a throughput one.
    merged["fault_campaign"]["recovery"] = [
        {
            "name": r.get("name", ""),
            "crashes": r.get("crashes", 0),
            "latency_mean": r.get("latency", {}).get("mean", 0),
            "latency_max": r.get("latency", {}).get("max", 0),
            "lost_work_mean": r.get("lost_work", {}).get("mean", 0),
            "runtime_overhead": r.get("runtime_overhead", 0),
            "phases": r.get("phases", {}),
            # Durable-linearizability verdict totals of the
            # concurrent cases: a scheme that starts producing
            # violations (or stops producing checkable images) shows
            # up in the trajectory diff like any other regression.
            "durable_lin": r.get("durable_lin", {}),
        }
        for r in report.get("recovery", [])
    ]
if whatif_path != "none" and os.path.exists(whatif_path):
    with open(whatif_path) as f:
        wa = json.load(f)
    # One row per scheme, keyed by "name" so flattened paths look
    # like whatif[cwsp].overhead_gmean. Numeric leaves feed the
    # baseline differ; the bottleneck/knob names are carried for
    # human readers of the summary.
    sens = {s.get("scheme"): s.get("knobs", [])
            for s in wa.get("sensitivity", [])}
    merged["whatif"] = [
        {
            "name": s.get("name", ""),
            "overhead_gmean": s.get("overhead_gmean", 0),
            "overhead_total": s.get("overhead_total", 0),
            "top_bottleneck": s.get("top_bottleneck", "none"),
            "top_saved_cycles": s.get("top_saved_cycles", 0),
            "residual_total": s.get("residual_total", 0),
            "warning_count": s.get("warning_count", 0),
            "top_knob":
                (sens.get(s.get("name")) or [{}])[0].get(
                    "name", "none"),
            "top_knob_score":
                (sens.get(s.get("name")) or [{}])[0].get(
                    "score", 0),
        }
        for s in wa.get("whatif", {}).get("scheme_summary", [])
    ]
    # "whatif" is a list of scheme rows, so its step time sits beside it.
    merged["whatif_wall_clock_s"] = wall.get("whatif", 0)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1)
print("wrote {}: {} binaries, {} cases, {}s wall clock".format(
    out_path, len(merged["binaries"]), merged["total_cases"],
    elapsed))
EOF

# Warn-only regression gate: compare against the previous summary
# when one existed. Wall-clock metrics are ignored by default; a
# nonzero exit (simulated-metric regressions) is reported but does
# not fail the sweep — perf tracking, not a hard gate.
if [ -n "$prev" ] && [ -x "$BUILD_DIR/tools/cwsp_analyze" ]; then
    echo "== baseline diff vs previous $OUT (warn-only) =="
    "$BUILD_DIR"/tools/cwsp_analyze --diff "$prev" "$OUT" ||
        echo "bench_all: metrics moved vs previous $OUT (see above)" >&2
fi

# Append the per-PR headline snapshot (simspeed counters, suite size,
# fault-campaign health) to the committed trajectory file; failure is
# reported but does not fail the sweep.
if [ -n "$TRAJ" ] && [ -x "$BUILD_DIR/tools/cwsp_analyze" ]; then
    label=${TRAJ_LABEL:-$(git rev-parse --short HEAD 2>/dev/null ||
                          echo local)}
    "$BUILD_DIR"/tools/cwsp_analyze --trajectory-append "$TRAJ" "$OUT" \
        --label "$label" --date "$(date -u +%Y-%m-%d)" ||
        echo "bench_all: trajectory append to $TRAJ failed" >&2
fi
