#!/usr/bin/env bash
# Sanitizer CI pass: build the tree under Debug — once with
# AddressSanitizer, once with UndefinedBehaviorSanitizer — and run
# the full ctest suite under each. Catches the class of bug the
# RelWithDebInfo tier-1 run can't: heap misuse in the ring buffers
# and caches, UB in the timing arithmetic. A third, ThreadSanitizer
# lane builds only the multi-threaded surfaces (batch runner, fault
# campaign, durable-lin checker) and runs them with several workers,
# watching the shared caches and worker pools for data races.
#
# A Release simulator-throughput smoke rides along at the end: it
# runs the bench_simspeed aggregate case and warns (never fails) when
# sims_per_sec drops more than 20% below the last committed
# BENCH_trajectory.json entry.
#
# Usage:
#   tools/ci_check.sh [sanitizer...]     # default: address undefined thread
# Environment:
#   BUILD_ROOT  directory for the sanitizer build trees
#               (default: build-san)
#   JOBS        parallel build/test jobs (default: nproc)
#   BENCH_SMOKE 0 skips the Release bench_simspeed smoke (default: 1)

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_ROOT=${BUILD_ROOT:-build-san}
JOBS=${JOBS:-$(nproc)}
SANITIZERS=("$@")
if [ ${#SANITIZERS[@]} -eq 0 ]; then
    SANITIZERS=(address undefined thread)
fi

# Halt on the first UB or race report instead of printing and
# continuing, so a UBSan or TSan report fails the suite.
export UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1}
export TSAN_OPTIONS=${TSAN_OPTIONS:-halt_on_error=1}

for san in "${SANITIZERS[@]}"; do
    dir=$BUILD_ROOT/$san
    if [ "$san" = thread ]; then
        echo "== thread: configure ($dir) =="
        cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Debug \
              -DCWSP_SANITIZE=thread
        echo "== thread: build (multi-threaded surfaces) =="
        cmake --build "$dir" -j "$JOBS" --target test_batch_runner \
              test_fault_campaign test_durable_lin test_json \
              cwsp_run cwsp_faultcampaign cwsp_analyze bench_fig25_pb_size
        echo "== thread: batch, campaign, durable-lin and JSON tests =="
        # These tests run BatchRunner pools, the shared stream and
        # checkpoint caches, and campaign workers with jobs > 1; the
        # JSON goldens run campaigns and batches of their own.
        for t in test_batch_runner test_fault_campaign test_durable_lin \
                 test_json; do
            "$dir"/tests/$t
        done
        echo "== thread: tool exit codes =="
        bash tests/tools_exit_codes.sh "$dir"/tools/cwsp_run \
             "$dir"/tools/cwsp_analyze "$dir"/tools/cwsp_faultcampaign \
             "$dir"/bench/bench_fig25_pb_size
        echo "== thread: forked + concurrent campaign smokes (jobs 4) =="
        "$dir"/tools/cwsp_faultcampaign --app fft,bzip2 \
              --points 1 --jobs 4 --quiet
        "$dir"/tools/cwsp_faultcampaign --app cqueue,chash \
              --points 1 --schedules 2 --jobs 4 --quiet
        continue
    fi
    echo "== $san: configure ($dir) =="
    cmake -B "$dir" -S . \
          -DCMAKE_BUILD_TYPE=Debug \
          -DCWSP_SANITIZE="$san"
    echo "== $san: build =="
    cmake --build "$dir" -j "$JOBS"
    echo "== $san: ctest =="
    # Includes test_json (artefact goldens, hostile-input and mutation
    # checks on the JSON reader) and tools_exit_codes.
    ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
    echo "== $san: replay-equivalence smoke =="
    # The full ctest pass above already runs test_replay_equiv; this
    # re-runs the trace/crash bit-identity cases standalone so a
    # replay divergence under the sanitizer fails with its own banner
    # instead of disappearing into the suite summary.
    "$dir"/tests/test_replay_equiv --gtest_filter=\
'ReplayEquiv.TraceStreamsIdentical:ReplayEquiv.CrashSweepIdentical'
    echo "== $san: recorder oracle + stream policy =="
    # The one-pass commit-stream recorder must match the two-pass
    # reference encoder field by field, and BatchRunner's
    # record-on-reuse policy must give the same path counts and
    # results for jobs 1 and 4 — the jobs=4 case runs the shared
    # demand set and stream cache concurrently under the sanitizer.
    "$dir"/tests/test_replay_equiv --gtest_filter='RecorderOracle.*'
    "$dir"/tests/test_batch_runner --gtest_filter='StreamPolicy.*'
    echo "== $san: golden pass + forked campaign equivalence =="
    # The one-pass golden run must equal the three separate
    # functional runs it replaced, replay-driven crash-point
    # enumeration the interpreted one, and the page-wise globals
    # checker the word-wise loop. The forked campaign (jobs 1 and 4)
    # must fork every case and report what --no-fork reports.
    "$dir"/tests/test_replay_equiv --gtest_filter='GoldenRunOracle.*'
    "$dir"/tests/test_fault_campaign --gtest_filter=\
'ConsistencyChecker.*:FaultCampaign.ReplayDrivenCrashPointsMatchInterpreted:FaultCampaign.ForkedCampaignForksEveryCase'
    echo "== $san: invariant smoke (every scheme) =="
    # Online protocol checking over a small batch: attaches the
    # obs::InvariantMonitor to each simulation and fails on any
    # violation (region ordering, undo-log coverage, WPQ capacity,
    # crash quiescence).
    "$dir"/tools/cwsp_analyze --check-invariants \
          --scheme all --app fft --jobs "$JOBS"
    echo "== $san: fault-campaign smoke (every scheme, forked) =="
    # Bounded robustness pass: trace-derived crash points on two
    # apps across all schemes, with nested-crash schedules and
    # torn-log/bit-flip/stale-slot media faults, run differentially
    # against golden. Exits nonzero on any divergence, lost output,
    # or undetected media fault — and the sanitizers watch the
    # hardened recovery path itself while it degrades. Cases fork
    # from golden-run checkpoints (the default), so the checkpoint
    # capture/restore path — the byte-blob component protocol and the
    # bundle hand-off — is itself exercised under ASan and UBSan.
    # Every case must fork: the printed ledger has to report 0
    # fallbacks.
    "$dir"/tools/cwsp_faultcampaign --app fft,bzip2 \
          --points 1 --jobs "$JOBS" --quiet \
          | tee "$dir"/campaign_smoke.txt
    if ! grep -q "forks, 0 fallbacks," "$dir"/campaign_smoke.txt; then
        echo "ci_check: forked campaign fell back to from-scratch" >&2
        exit 1
    fi
    rm -f "$dir"/campaign_smoke.txt
    echo "== $san: concurrent campaign smoke (durable-lin on) =="
    # Lock-free queue + hash-map across all schemes, two
    # interleaving schedules each, with the durable-linearizability
    # checker deciding every verdict (concurrent cases have no
    # golden state to diff). Exits nonzero on any violation — and
    # the sanitizers watch the multicore crash/recovery path and the
    # checker's search itself.
    "$dir"/tools/cwsp_faultcampaign --app cqueue,chash \
          --points 1 --schedules 2 --jobs "$JOBS" --quiet
    echo "== $san: what-if smoke (every scheme, cross-checked) =="
    # Counterfactual waterfalls for one app across all schemes with
    # the stall-attribution cross-check enabled, bypassing the result
    # cache so the idealized configurations (infinite PB, ideal path,
    # free undo logging, ...) actually execute under the sanitizer
    # rather than replaying cached numbers. The tool exits nonzero if
    # any waterfall fails to reconcile bit-exactly; cross-check
    # disagreements are report warnings, not failures.
    "$dir"/tools/cwsp_analyze --whatif --scheme all --app fft \
          --no-sensitivity --no-result-cache --jobs "$JOBS" \
          > /dev/null
    echo "== $san: telemetry smoke (every scheme) =="
    # One sampled + traced run per scheme: attaches the counter
    # sampler at the config-derived cadence, exports the Chrome
    # trace with the Perfetto counter tracks merged in, and
    # re-parses it — the validator fails on malformed JSON or a
    # counter track that goes backwards in time (plain runs only;
    # crash runs restart the epoch clock by design). The sampler's
    # probe lambdas and the export path run under the sanitizer.
    for scheme in baseline cwsp capri ido replaycache psp; do
        trace=$dir/telemetry_$scheme.trace.json
        "$dir"/tools/cwsp_run --app fft --scheme "$scheme" \
              --sample-period 0 --trace-out "$trace" > /dev/null
        "$dir"/tools/cwsp_analyze --validate-trace "$trace"
        rm -f "$trace"
    done
done

echo "ci_check: all sanitizer passes clean (${SANITIZERS[*]})"

# Release simulator-throughput smoke (warn-only). Sanitizer builds
# cannot carry a perf floor, so this uses its own Release tree. The
# floor is the last BENCH_trajectory.json entry's aggregate
# sims_per_sec minus 20% — generous enough to ride out box noise; a
# real overhaul regression (the hot path is ~1.4x the trajectory
# baseline) still trips it. Advisory only: wall-clock throughput on a
# shared box is not a gate.
BENCH_SMOKE=${BENCH_SMOKE:-1}
if [ "$BENCH_SMOKE" = 1 ]; then
    dir=$BUILD_ROOT/release
    echo "== release: configure ($dir) =="
    cmake -B "$dir" -S . -DCMAKE_BUILD_TYPE=Release
    echo "== release: build bench_simspeed =="
    cmake --build "$dir" -j "$JOBS" --target bench_simspeed
    echo "== release: bench_simspeed smoke (warn-only floor) =="
    smoke=$dir/simspeed_smoke.json
    "$dir"/bench/bench_simspeed \
        --benchmark_filter='simspeed/aggregate|simspeed/crash_sweep/cwsp' \
        --benchmark_out="$smoke" --benchmark_out_format=json \
        > /dev/null
    python3 - "$smoke" BENCH_trajectory.json <<'EOF'
import json
import os
import sys

smoke_path, traj_path = sys.argv[1], sys.argv[2]
with open(smoke_path) as f:
    smoke = json.load(f)

# The floored cases: the pinned cross-PR aggregate plus the forked
# crash-sweep path (checkpoint-fork sweeps are a perf feature; a
# fidelity-preserving change that quietly re-executes every prefix
# should trip this, not pass silently).
cases = ["simspeed/aggregate", "simspeed/crash_sweep/cwsp"]
current = {}
for b in smoke.get("benchmarks", []):
    name = b.get("name", "")
    for case in cases:
        # Prefer the median when the run used repetitions.
        if name == case + "_median":
            current[case] = b.get("sims_per_sec")
        elif name == case and case not in current:
            current[case] = b.get("sims_per_sec")
if not current:
    print("bench smoke: no floored case found (skipped)")
    sys.exit(0)
trajectory = []
if os.path.exists(traj_path):
    with open(traj_path) as f:
        trajectory = json.load(f)
for case, value in sorted(current.items()):
    floor_value, floor_label = None, None
    suffix = "[{}].sims_per_sec".format(case)
    for entry in reversed(trajectory):
        for metric, mv in entry.get("metrics", {}).items():
            if metric.endswith(suffix):
                floor_value, floor_label = mv, entry.get("name")
                break
        if floor_value is not None:
            break
    if value is None:
        print("bench smoke: {}: no sims_per_sec counter".format(case))
        continue
    if floor_value is None:
        print("bench smoke: {}: {:.1f} sims/s (no trajectory "
          "floor)".format(case, value))
        continue
    floor = 0.8 * floor_value
    verdict = "ok" if value >= floor else "WARNING: below floor"
    print("bench smoke: {}: {:.1f} sims/s vs trajectory '{}' {:.1f} "
          "(floor {:.1f}, -20%): {}".format(
              case, value, floor_label, floor_value, floor, verdict))
# Warn-only by design: exit clean either way.
EOF
fi
