#!/bin/bash
# Runs the repo benchmark (BENCHMARK.json's command, e2ebench/run.sh) in
# alternating pairs on two checkouts, a parent and a change, and writes
# every workload's result line as the e2e list of a BENCH_<n>.json that
# `tpbench -compare` summarizes. The order alternates per pair (parent
# first on even pairs, change first on odd ones), so a drift of the host
# over the session loads both sides alike.
#
# Usage:
#
#	scripts/e2e-pairs.sh PARENT_DIR CHANGE_DIR PAIRS OUT.json [run.sh args]
#
# The run.sh arguments default to --workload all --seed 1 --seconds 20
# --trace 0. Each run's full report is kept next to OUT.json as
# OUT.json.<side>.<pair>.log.
set -euo pipefail
if [ $# -lt 4 ]; then
	sed -n '2,16p' "$0" >&2
	exit 2
fi
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) pairs=$3 out=$4
shift 4
args=("$@")
[ ${#args[@]} -gt 0 ] || args=(--workload all --seed 1 --seconds 20 --trace 0)

records=()
run() { # side dir pair
	local log="$out.$1.$3.log"
	bash "$2/e2ebench/run.sh" "${args[@]}" >"$log"
	# Each workload's report opens with a "# e2ebench workload=W seed=S"
	# line and closes with its result object.
	while IFS= read -r rec; do
		records+=("$rec")
	done < <(awk -v side="$1" -v pair="$3" '
		/^# e2ebench workload=/ {
			for (i = 1; i <= NF; i++) {
				if ($i ~ /^workload=/) w = substr($i, 10)
				if ($i ~ /^seed=/) s = substr($i, 6)
			}
		}
		/^\{"correct"/ {
			printf "{\"side\":\"%s\",\"pair\":%d,\"workload\":\"%s\",\"seed\":%d,\"result\":%s}\n", side, pair, w, s, $0
		}' "$log")
}
for ((p = 0; p < pairs; p++)); do
	if ((p % 2 == 0)); then
		run parent "$parent" "$p"
		run change "$change" "$p"
	else
		run change "$change" "$p"
		run parent "$parent" "$p"
	fi
	echo "pair $p done" >&2
done
{
	printf '{\n  "schema": 1,\n  "runs": [],\n  "e2e": [\n'
	for i in "${!records[@]}"; do
		sep=,
		((i == ${#records[@]} - 1)) && sep=
		printf '    %s%s\n' "${records[$i]}" "$sep"
	done
	printf '  ]\n}\n'
} >"$out"
