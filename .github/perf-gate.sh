#!/usr/bin/env bash
# Performance gate: runs the repository benchmark (bench/) on a parent
# revision and on the working tree, and fails when the change is worse.
# Run it from the repository root:
#
#   bash .github/perf-gate.sh <parent-rev>
#
# The parent is checked out as a git worktree under .perf-gate/. Each of
# PAIRS pairs runs every workload below once on each side, alternating
# which side goes first, as `bench/run.sh --workload W --seconds SECONDS
# --trace 0 -o ...`. The gate fails when any run exits non-zero (a failed
# operation or a result digest mismatch), or when the change's
# `bench -compare` of the two sets exits 1: a metric worse than its bound
# in BENCHMARK.json, or missing. The reports stay in .perf-gate/parent and
# .perf-gate/change.
set -euo pipefail

# canteen, canteen-randomized and the city pair cover the simulation
# paths; fig5-job covers plan, job server, campaign pool and the live
# telemetry publisher the server attaches to every job.
WORKLOADS=(canteen canteen-randomized city-serial city-partitioned fig5-job)
SECONDS_PER_RUN=4
PAIRS=10

if [ $# -ne 1 ]; then
	echo "usage: bash .github/perf-gate.sh <parent-rev>" >&2
	exit 2
fi
parent=$(git rev-parse --verify "$1^{commit}")
root=$(git rev-parse --show-toplevel)
gate="$root/.perf-gate"
tree="$gate/tree"

cleanup() {
	git -C "$root" worktree remove --force "$tree" 2>/dev/null || true
}
trap cleanup EXIT
rm -rf "$gate"
git -C "$root" worktree prune
mkdir -p "$gate/parent" "$gate/change"
git -C "$root" worktree add --detach --quiet "$tree" "$parent"

# run SIDE DIR PAIR WORKLOAD runs one report in checkout DIR; its output
# goes to a log beside the report.
run() {
	local report="$gate/$1/$4-$3"
	if ! (cd "$2" && bash bench/run.sh --workload "$4" --seconds "$SECONDS_PER_RUN" \
		--trace 0 -o "$report.json") >"$report.log" 2>&1; then
		tail -n 20 "$report.log" >&2
		echo "perf-gate: $4 failed on the $1 side (pair $3); log: $report.log" >&2
		exit 1
	fi
}

start=$(date +%s)
for pair in $(seq 1 "$PAIRS"); do
	for w in "${WORKLOADS[@]}"; do
		if [ $((pair % 2)) -eq 1 ]; then
			run parent "$tree" "$pair" "$w"
			run change "$root" "$pair" "$w"
		else
			run change "$root" "$pair" "$w"
			run parent "$tree" "$pair" "$w"
		fi
	done
	echo "perf-gate: pair $pair/$PAIRS done after $(($(date +%s) - start)) s" >&2
done

echo "perf-gate: parent $parent (A) against the working tree (B)"
cd "$root"
bash bench/run.sh -compare "$gate/parent" "$gate/change"
