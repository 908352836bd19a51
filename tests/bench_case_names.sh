#!/usr/bin/env bash
# Case-name contract of the figure benches. Every bench binary's
# --benchmark_list_tests output, each line prefixed with the binary's
# name, must equal tests/golden/bench_case_names.txt: the names key
# BENCH_summary.json's metrics, so a renamed, dropped or reordered
# case would break the baseline diff across revisions. Then the
# prefetch must follow --benchmark_filter: a listing or a filter that
# matches nothing simulates nothing, one bar simulates its two
# points, and a gmean selected alone reports the value it has next
# to its bars.
#
# Usage: tests/bench_case_names.sh GOLDEN BENCH_BINARY...
# (the binaries must include bench_fig13_* and bench_fig18_*)

set -u
golden=$1
shift
benches=("$@")
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

for b in "$@"; do
    name=$(basename "$b")
    if ! "$b" --benchmark_list_tests --no-result-cache \
            --cache-dir "$dir/cache" > "$dir/list" 2> "$dir/stderr"; then
        echo "FAIL: $name --benchmark_list_tests exited nonzero"
        cat "$dir/stderr"
        failed=1
    fi
    sed "s|^|$name |" "$dir/list" >> "$dir/names"
    grep -q '^batch:' "$dir/stderr" && echo "$name" >> "$dir/listed_sims"
done

if diff -u "$golden" "$dir/names"; then
    echo "ok: $(wc -l < "$dir/names") case names match the golden"
else
    echo "FAIL: case names differ from $golden"
    failed=1
fi

# The prefetch simulates only the points of the cases the filter
# selects. fig(ID) — the path of figure ID's binary among the inputs.
fig() { printf '%s\n' "${benches[@]}" | grep "/bench_$1_"; }
# counter FILE CASE KEY — KEY of CASE in a --benchmark_out JSON report.
counter() {
    awk -v name="\"$2/iterations:1\"," -v key="\"$3\":" '
        $1 == "\"name\":" { found = ($2 == name) }
        found && $1 == key { sub(/,$/, "", $2); print $2; exit }' "$1"
}
# filtered FIG FILTER OUT — run FIG's binary on FILTER into OUT.json.
filtered() {
    "$(fig "$1")" --jobs 2 --no-result-cache --cache-dir "$dir/cache" \
        --benchmark_filter="$2" --benchmark_out="$dir/$3.json" \
        --benchmark_out_format=json > /dev/null 2> "$dir/$3.err"
}
expect_batch() {
    if grep -q "$2" "$dir/$1.err"; then
        echo "ok: $3"
    else
        echo "FAIL: $3"
        cat "$dir/$1.err"
        failed=1
    fi
}

if [ -s "$dir/listed_sims" ]; then
    echo "FAIL: --benchmark_list_tests simulated points in" \
         $(cat "$dir/listed_sims")
    failed=1
else
    echo "ok: --benchmark_list_tests simulates nothing"
fi
filtered fig13 '^fig13/cwsp/cpu2006/bzip2/' bar
expect_batch bar '^batch: 2 points ' "a one-bar filter simulates its 2 points"
filtered fig13 'no-such-case' none
if grep -q '^batch:' "$dir/none.err"; then
    echo "FAIL: a filter that matches nothing simulated points"
    failed=1
else
    echo "ok: a filter that matches nothing simulates nothing"
fi

filtered fig18 'fig18/cwsp/gmean' gmean
filtered fig18 'fig18/cwsp/' series
alone=$(counter "$dir/gmean.json" fig18/cwsp/gmean slowdown)
with_bars=$(counter "$dir/series.json" fig18/cwsp/gmean slowdown)
if [[ "$alone" =~ ^[0-9.e+-]+$ ]] && [ "$alone" = "$with_bars" ]; then
    echo "ok: fig18/cwsp/gmean alone = with its bars ($alone)"
else
    echo "FAIL: fig18/cwsp/gmean alone '$alone', with its bars" \
         "'$with_bars'"
    failed=1
fi
exit $failed
