#!/usr/bin/env bash
# perf-ab.sh — interleaved same-machine A/B of the repository benchmark:
# the working tree against a base commit (by default its parent).
#
#   bash scripts/perf-ab.sh                          # 3 samples per side
#   bash scripts/perf-ab.sh --samples 10 --workloads recover-cold
#   make perf-ab PERF_AB_ARGS='--samples 10'
#
# The base commit's tree is exported (git archive) into a temporary
# directory, removed on exit. For each workload the script then runs
#
#   bash perfbench/run.sh --workload W --seed S --seconds R --trace 0
#
# alternately in the base and the working tree, flipping which side goes
# first on every pair so drift hits both alike. R is BENCHMARK.json's
# run_seconds, the length the benchmark itself runs for. Each run's result
# line goes to stderr as it lands; a run whose output fails the benchmark's
# checks ("correct": false) aborts the A/B, so every table comes from
# correct runs only. stdout gets one row per end-to-end metric: the
# per-side median, the change/base ratio, the base's interquartile range
# and how many pairs the change won in the metric's "better" direction
# (from BENCHMARK.json).
#
# Flags: --base REV (default HEAD when the working tree has changes, else
# HEAD~1), --workloads "W ..." (default: every workload in BENCHMARK.json),
# --seed S (1), --samples K (3).
set -euo pipefail

cd "$(dirname "$0")/.."
root=$(pwd)

base=""
workloads=""
seed=1
samples=3
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --samples) samples=$2; shift 2 ;;
    *) echo "perf-ab: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$base" ]; then
  if [ -z "$(git status --porcelain)" ]; then base=HEAD~1; else base=HEAD; fi
fi
if [ -z "$workloads" ]; then
  workloads=$(jq -r '.workloads[].name' BENCHMARK.json)
fi
rev=$(git rev-parse --short "$base")
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# results: one "workload side pair metric value" line per measurement.
results="$tmp/results"
: >"$results"
run_side() { # workload side pair
  local dir=$root
  [ "$2" = base ] && dir=$tmp/base
  local line
  line=$(cd "$dir" && bash perfbench/run.sh --workload "$1" --seed "$seed" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  echo "perf-ab: $1 $2 #$3 $line" >&2
  if ! jq -e '.correct == true' <<<"$line" >/dev/null; then
    echo "perf-ab: $1 $2 #$3 is not correct; aborting" >&2
    exit 1
  fi
  jq -r --arg w "$1" --arg s "$2" --arg p "$3" \
    '.metrics | to_entries[] | "\($w) \($s) \($p) \(.key) \(.value.value)"' \
    <<<"$line" >>"$results"
}

echo "perf-ab: base $rev vs working tree; seed $seed, ${seconds}s x $samples per side, $(nproc) CPUs" >&2
for w in $workloads; do
  for i in $(seq 1 "$samples"); do
    if [ $((i % 2)) -eq 1 ]; then
      run_side "$w" base "$i"
      run_side "$w" change "$i"
    else
      run_side "$w" change "$i"
      run_side "$w" base "$i"
    fi
  done
done

better="$tmp/better"
jq -r '.end_to_end[] | "\(.name) \(.better)"' BENCHMARK.json >"$better"
printf '%-14s %-18s %12s %12s %8s %12s %6s\n' \
  workload metric base change ratio base_iqr wins
sort -k1,1 -k4,4 -k2,2 -k5,5g "$results" | awk -v n="$samples" '
  FNR == NR { better[$1] = $2; next }
  function q(a, k, p,   i) { i = 1 + (k - 1) * p; return a[int(i)] + (i - int(i)) * (a[int(i) + 1] - a[int(i)]) }
  function flush() {
    if (key == "") return
    split(key, kk, SUBSEP)
    wins = 0
    for (p = 1; p <= n; p++) {
      b = val["base", p]; c = val["change", p]
      if ((better[kk[2]] == "higher" && c > b) || (better[kk[2]] == "lower" && c < b)) wins++
    }
    mb = q(bs, nb, 0.5); mc = q(cs, nc, 0.5)
    printf "%-14s %-18s %12.4g %12.4g %8.3f %12.4g %3d/%d\n", kk[1], kk[2], mb, mc,
      (mb == 0 ? 0 : mc / mb), q(bs, nb, 0.75) - q(bs, nb, 0.25), wins, n
    delete bs; delete cs; delete val; nb = nc = 0
  }
  {
    k = $1 SUBSEP $4
    if (k != key) { flush(); key = k }
    val[$2, $3] = $5
    if ($2 == "base") bs[++nb] = $5; else cs[++nc] = $5
  }
  END { flush() }
' "$better" -
