#!/usr/bin/env bash
# A/A: runs the suite twice on the same code and compares the two sets with
# the benchmark's own bounds. The sets are interleaved run by run
# (A1 B1 A2 B2 ..., never AAA...BBB) because this kind of box drifts by a
# quarter between sessions; only neighbouring runs compare.
#
#   bash benchmark/aa.sh            one run per workload and side (~7 min)
#   ROUNDS=5 bash benchmark/aa.sh   five: verdicts then use run-to-run quartiles
#   SECONDS_PER_RUN=10 SEED=7       the defaults
#
# Exit code 0 means every (workload, end-to-end metric) pair is within its
# bound, every exact count equal and nothing failed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
rounds="${ROUNDS:-1}"
secs="${SECONDS_PER_RUN:-10}"
seed="${SEED:-7}"
out="benchmark/out"
mkdir -p "$out"
: >"$out/aa-a.jsonl"
: >"$out/aa-b.jsonl"
workloads="sim_apsp sim_blocker rebuild_sparse rebuild_dense query_point query_batch"

run() { # side workload seed trace
	bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace "$4" >"$out/aa-last.txt"
	cat "$out/result-$2-trace$4.json" >>"$out/aa-$1.jsonl"
}

for w in $workloads; do
	for r in $(seq 1 "$rounds"); do
		# Both sides get the same seed: the exact counts must then agree.
		s=$((seed + r - 1))
		echo "== $w round $r seed $s" >&2
		run a "$w" "$s" 0
		run b "$w" "$s" 0
	done
	# One traced run per side carries the exact counts and the span table.
	run a "$w" "$seed" 1
	run b "$w" "$seed" 1
done
bash benchmark/run.sh -compare "$out/aa-a.jsonl" "$out/aa-b.jsonl"
