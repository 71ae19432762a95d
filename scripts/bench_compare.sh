#!/usr/bin/env bash
# bench_compare.sh — run the paired allocation benchmarks on a reference
# revision and on the working tree, and print ns/op, B/op, allocs/op deltas.
#
# Usage:
#   scripts/bench_compare.sh [REF] [BENCH_REGEX]
#
#   REF          git revision to compare against (default: HEAD). When the
#                working tree is dirty the tree is stashed while the
#                reference run executes and restored afterwards.
#   BENCH_REGEX  -bench regex (default: the simulator-core set
#                'BenchmarkPipeline$|BenchmarkPipelineIdleHeavy$|BenchmarkMultiCorePipeline$|BenchmarkHierarchy$|ConvertSimulate|BenchmarkSlab').
#
# Environment:
#   GO         go binary (default: go)
#   BENCHTIME  -benchtime value (default: 3x — enough for stable allocs/op;
#              raise for publication-quality ns/op)
#
# The script never runs benchmarks concurrently and pins -count 1, so the
# two runs see the same machine state back to back.
set -euo pipefail

GO=${GO:-go}
BENCHTIME=${BENCHTIME:-3x}
REF=${1:-HEAD}
BENCH=${2:-'BenchmarkPipeline$|BenchmarkPipelineIdleHeavy$|BenchmarkMultiCorePipeline$|BenchmarkHierarchy$|ConvertSimulate|BenchmarkSlab'}

repo_root=$(git rev-parse --show-toplevel)
cd "$repo_root"

tmpdir=$(mktemp -d /tmp/bench_compare.XXXXXX)
old_out=$tmpdir/ref.out
new_out=$tmpdir/new.out
trap 'rm -rf "$tmpdir"' EXIT

# Refuse to "compare" a tree against itself: with a clean tree and REF at
# HEAD there is no stash-able baseline, and the two runs would measure the
# same code. (Without this check a stash that found nothing to save would
# silently produce a do-nothing comparison.)
dirty=0
if ! git diff --quiet || ! git diff --cached --quiet; then
	dirty=1
fi
if [ "$(git rev-parse "$REF^{commit}")" = "$(git rev-parse HEAD)" ] && [ "$dirty" -eq 0 ]; then
	echo "bench_compare: nothing to compare: working tree is clean and REF ($REF) is HEAD." >&2
	echo "bench_compare: make changes first, or compare two commits: make bench-compare REF=HEAD~1" >&2
	exit 1
fi

run_bench() {
	# Capture the full go test output so a build or test failure aborts the
	# comparison loudly instead of feeding an empty baseline to the deltas.
	local out
	if ! out=$("$GO" test -run '^$' -bench "$BENCH" -benchmem -benchtime "$BENCHTIME" -count 1 . 2>&1); then
		printf '%s\n' "$out" >&2
		return 1
	fi
	printf '%s\n' "$out" | grep -E '^Benchmark' || true
}

echo "== working tree =="
run_bench | tee "$new_out"

stashed=0
orig_head=
if [ "$dirty" -eq 1 ]; then
	git stash push --quiet --include-untracked -m bench_compare
	stashed=1
fi
restore() {
	if [ -n "$orig_head" ]; then
		git checkout --quiet "$orig_head"
		orig_head=
	fi
	if [ "$stashed" -eq 1 ]; then
		git stash pop --quiet
		stashed=0
	fi
}
trap 'restore; rm -rf "$tmpdir"' EXIT

if [ "$(git rev-parse "$REF^{commit}")" != "$(git rev-parse HEAD)" ]; then
	orig_head=$(git rev-parse --abbrev-ref HEAD)
	[ "$orig_head" = "HEAD" ] && orig_head=$(git rev-parse HEAD)
	git checkout --quiet "$REF"
fi

echo
echo "== reference ($REF) =="
run_bench | tee "$old_out"

restore

echo
echo "== deltas (reference -> working tree) =="
awk '
	# Columns shift when a benchmark reports extra metrics (e.g. MB/s), so
	# locate each value by the unit label that follows it.
	function metric(unit,   i) {
		for (i = 2; i <= NF; i++) if ($i == unit) return $(i - 1)
		return 0
	}
	function pct(o, n) {
		if (o == 0) return (n == 0) ? "0%" : "n/a"
		return sprintf("%+.1f%%", 100 * (n - o) / o)
	}
	NR == FNR {
		ns[$1] = metric("ns/op"); b[$1] = metric("B/op"); a[$1] = metric("allocs/op"); k[$1] = metric("kips")
		next
	}
	{
		if (!($1 in ns)) { printf "%-40s (new benchmark)\n", $1; next }
		printf "%-40s ns/op %12d -> %12d (%s)   B/op %9d -> %9d (%s)   allocs/op %7d -> %7d (%s)",
			$1, ns[$1], metric("ns/op"), pct(ns[$1], metric("ns/op")),
			b[$1], metric("B/op"), pct(b[$1], metric("B/op")),
			a[$1], metric("allocs/op"), pct(a[$1], metric("allocs/op"))
		# Simulated speed, for the benchmarks that report it.
		if (metric("kips") != 0) printf "   kips %7d -> %7d (%s)", k[$1], metric("kips"), pct(k[$1], metric("kips"))
		printf "\n"
	}
' "$old_out" "$new_out"
