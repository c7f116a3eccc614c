#!/usr/bin/env bash
# Runs every workload once, untraced, and prints each run's detail
# lines and result line prefixed with the workload name. Run it from
# the checkout root:
#
#   bash perfbench/all.sh [seed] [seconds]
#
# It exits non-zero if any run fails or reports a failed operation.
set -euo pipefail

seed=${1:-1}
seconds=${2:-35}
status=0
for w in eval suite serve; do
	if ! out=$(bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0); then
		echo "$w: run failed" >&2
		status=1
		continue
	fi
	sed "s/^/$w: /" <<<"$out"
	last=$(tail -n 1 <<<"$out")
	if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0,'* ]]; then
		echo "$w: output checks failed" >&2
		status=1
	fi
done
exit "$status"
