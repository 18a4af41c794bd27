#!/usr/bin/env bash
# Runs one set of untraced benchmark runs and appends their records to a
# JSONL file for `run.sh compare`. Run from the repository root:
#
#   bash perfbench/steady.sh SET.jsonl [SEEDS] [WORKLOADS...]
#
# SEEDS defaults to 10 (seeds 1..10); WORKLOADS default to all three. The
# run length is BENCHMARK.json's run_seconds. Two sets made this way and
# compared with `bash perfbench/run.sh compare A.jsonl B.jsonl` give the
# steadiness verdict.
set -euo pipefail

set_file=$1
seeds=${2:-10}
shift $(($# < 2 ? $# : 2))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	workloads=(campaign replay timing)
fi
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

for w in "${workloads[@]}"; do
	for s in $(seq 1 "$seeds"); do
		bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$seconds" \
			--trace 0 --record "$set_file" >/dev/null
	done
done
