#!/usr/bin/env bash
# Exit-code contract of every command-line tool. A usage error — an
# unknown flag, a missing value, or a value the option table rejects —
# exits 2 with the generated usage on stderr. For cwsp_analyze, an
# unreadable, malformed or metrics-free input exits 2 (--validate-trace:
# 1), a regression or a trace finding exits 1, and every nonzero exit
# prints a diagnostic (for a --diff regression, the report naming it).
# Hostile input (200,000 nested brackets) and bad flag values must end
# in that diagnostic, never in a signal or an internal assertion. One
# clean run per tool exits 0.
#
# Usage: tests/tools_exit_codes.sh CWSP_RUN CWSP_ANALYZE \
#            CWSP_FAULTCAMPAIGN BENCH_BINARY

set -u
run=$1 analyze=$2 campaign=$3 bench=$4
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

# check CODE DESCRIPTION TOOL ARGS... — run TOOL ARGS.
check() {
    local want=$1 what=$2
    shift 2
    "$@" > "$dir/stdout" 2> "$dir/stderr"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $what: exit $got, want $want"
        cat "$dir/stderr"
        failed=1
    elif [ "$want" -ne 0 ] && [ ! -s "$dir/stderr" ] &&
         [ ! -s "$dir/stdout" ]; then
        echo "FAIL: $what: exit $got without a diagnostic"
        failed=1
    elif grep -q "panic:" "$dir/stderr"; then
        echo "FAIL: $what: internal panic"
        cat "$dir/stderr"
        failed=1
    else
        echo "ok: $what (exit $got)"
    fi
}

# reject DESCRIPTION TOOL ARGS... — a usage error: exit 2 and the usage.
reject() {
    check 2 "$@"
    if ! grep -q "^usage: " "$dir/stderr"; then
        echo "FAIL: $1: no usage text"
        failed=1
    fi
}

# expect CODE DESCRIPTION ARGS... — run cwsp_analyze ARGS.
expect() {
    local want=$1 what=$2
    shift 2
    check "$want" "$what" "$analyze" "$@"
}

printf 'not json' > "$dir/junk.json"
echo '{}' > "$dir/empty.json"
echo '{"cycles": 100, "real_time": 5}' > "$dir/base.json"
echo '{"cycles": 150, "real_time": 5}' > "$dir/slower.json"
echo '{"cycles": 100, "real_time": 9}' > "$dir/same.json"
echo '{"traceEvents": [{"ph": "C", "name": "x", "ts": 5}' \
    > "$dir/truncated.trace.json"
head -c 200000 /dev/zero | tr '\0' '[' > "$dir/deep.json"

expect 2 "unknown flag" --no-such-flag
expect 2 "--diff on junk" --diff "$dir/junk.json" "$dir/base.json"
expect 2 "--diff on a metrics-free file" \
    --diff "$dir/base.json" "$dir/empty.json"
expect 1 "--diff on a regression" --diff "$dir/base.json" "$dir/slower.json"
expect 0 "--diff on a clean diff" --diff "$dir/base.json" "$dir/same.json"
expect 1 "--validate-trace on a malformed file" \
    --validate-trace "$dir/truncated.trace.json"
expect 2 "--diff on 200,000 nested brackets" \
    --diff "$dir/deep.json" "$dir/deep.json"
expect 2 "--recovery-report on 200,000 nested brackets" \
    --recovery-report "$dir/deep.json"
expect 1 "--validate-trace on 200,000 nested brackets" \
    --validate-trace "$dir/deep.json"
expect 0 "--whatif on one app" --whatif --scheme cwsp --app fft \
    --no-sensitivity --no-result-cache --jobs 1

# cwsp_analyze: flag values the table rejects.
reject "analyze --crash abc" "$analyze" --app fft --crash abc
reject "analyze --jobs abc" "$analyze" --app fft --jobs abc
reject "analyze --diff with one file" "$analyze" --diff "$dir/base.json"

# cwsp_run.
reject "run: unknown flag" "$run" --app fft --no-such-flag
reject "run: missing value" "$run" --app fft --trace-out
reject "run: missing value before a flag" "$run" --commits --app fft
reject "run: no app" "$run" --scheme cwsp
reject "run --app bogus --dump-ir" "$run" --app bogus --dump-ir
reject "run --jobs abc" "$run" --app fft --jobs abc
reject "run --rbt -1" "$run" --app fft --rbt -1
reject "run --bw abc" "$run" --app fft --bw abc
reject "run --pb 0" "$run" --app fft --pb 0
reject "run --commits 0:abc" "$run" --app fft --commits 0:abc
reject "run --crash-at-event region_begin:abc" "$run" --app fft \
    --crash-at-event region_begin:abc
reject "run --scheme bogus" "$run" --app fft --scheme bogus
check 0 "run: one app" "$run" --app fft --no-result-cache --jobs 1
check 0 "run --dump-ir" "$run" --app fft --scheme ido --dump-ir
check 0 "run --commits" "$run" --app fft --commits=0:20

# cwsp_faultcampaign.
reject "campaign: unknown flag" "$campaign" --app fft --no-such-flag
reject "campaign: missing value" "$campaign" --app
reject "campaign --jobs abc" "$campaign" --app fft --jobs abc
reject "campaign --app bogus" "$campaign" --app bogus --jobs 4
# Rejected before any worker starts: the error appears exactly once.
if [ "$(grep -c bogus "$dir/stderr")" -ne 1 ]; then
    echo "FAIL: campaign --app bogus: diagnostic repeated"
    failed=1
fi
check 0 "campaign: one app, one scheme" "$campaign" --app fft \
    --scheme cwsp --points 1 --no-nested --no-media --jobs 1 --quiet

# benchMain (every bench binary): its flags go through the same table,
# everything else to google-benchmark (whose --help exits 0 before any
# design point is simulated).
reject "bench --jobs abc" "$bench" --jobs abc
reject "bench: missing value" "$bench" --cache-dir
check 0 "bench: flags handed to google-benchmark" "$bench" --jobs 1 \
    --no-result-cache --cache-dir "$dir/cache" --help

exit $failed
