#!/usr/bin/env bash
# Exit-code contract of cwsp_analyze: a usage error or an unreadable,
# malformed or metrics-free input exits 2 (--validate-trace: 1), a
# regression or a trace finding exits 1, a clean run exits 0, and
# every nonzero exit prints a diagnostic (for a --diff regression,
# the report naming it). Hostile input (200,000 nested brackets) must
# end in that diagnostic, never in a signal.
#
# Usage: tests/analyze_exit_codes.sh path/to/cwsp_analyze

set -u
analyze=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

# expect CODE DESCRIPTION ARGS... — run cwsp_analyze ARGS.
expect() {
    local want=$1 what=$2
    shift 2
    "$analyze" "$@" > "$dir/stdout" 2> "$dir/stderr"
    local got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: $what: exit $got, want $want"
        cat "$dir/stderr"
        failed=1
    elif [ "$want" -ne 0 ] && [ ! -s "$dir/stderr" ] &&
         [ ! -s "$dir/stdout" ]; then
        echo "FAIL: $what: exit $got without a diagnostic"
        failed=1
    else
        echo "ok: $what (exit $got)"
    fi
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

exit $failed
