#!/usr/bin/env bash
# Checks the benchmark's allocation counts against .github/gates.tsv, one
# gate a row: workload, end-to-end metric, bound, and what a reading over
# the bound means. One run of benchmark/run.sh (seed 1, three timed
# repetitions, untraced) measures all six workloads; every row is checked
# before the script exits non-zero on a breach, on a workload that ran
# incorrectly or printed no result, or on a failed run. Allocation counts
# are the same on any machine, so a breach is a change to the program.
#
#	bash .github/gates.sh    # from anywhere in the checkout
set -uo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

mkdir -p .bench_build
out=.bench_build/gates.txt
bash benchmark/run.sh --seed 1 --reps 3 --trace 0 | tee "$out"
fail=${PIPESTATUS[0]}
while IFS=$'\t' read -r workload metric bound message; do
	# The result is the first JSON line after the workload's "# workload" line.
	value=$(awk -v w="$workload" '/^# workload / { hit = $3 == w; next } hit && /^\{/ { print; exit }' "$out" |
		jq -r --arg m "$metric" 'if .correct then .metrics[$m].value // empty else empty end')
	if [ -z "$value" ]; then
		echo "$workload $metric: no result, or the workload ran incorrectly" >&2
		fail=1
	elif awk -v v="$value" -v b="$bound" 'BEGIN { exit !(v + 0 > b + 0) }'; then
		echo "$workload $metric = $value, over $bound: $message" >&2
		fail=1
	fi
done < .github/gates.tsv
exit "$fail"
