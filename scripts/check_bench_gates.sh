#!/usr/bin/env bash
# Declarative acceptance gates over the BENCH_*.json artifacts.
#
# Each gate is one `<artifact>|<top-level key: value>` entry below: the
# artifact must exist, be non-empty, and contain the entry as a whole line
# at the top-level indent (two spaces), with or without a trailing comma.
# Matching whole lines keeps a gate from passing on a nested per-scenario
# row (`      "runs_identical": true`) or on a longer key that ends in the
# same text (`"scenario_spam_accepted": 0`). Fixed-string grep, so JSON
# quotes need no escaping. CI invokes this
# script once per bench step with the artifact name as the argument —
# only that artifact's gates run, keeping failure attribution per step —
# and a bare invocation checks every artifact at once for local runs.
#
# Usage:
#   scripts/check_bench_gates.sh                 # check all artifacts
#   scripts/check_bench_gates.sh BENCH_sync.json # check one artifact
set -euo pipefail

gates=(
  'BENCH_mining.json|"allocations_per_hash": 0.0000'
  'BENCH_mining.json|"simd_faster_than_scalar": true'
  'BENCH_mining.json|"thread_counts_within_cores": true'
  'BENCH_mining.json|"generation_below_execution": true'
  'BENCH_sync.json|"converged": true'
  'BENCH_sync.json|"runs_identical": true'
  'BENCH_adversary.json|"spam_accepted": 0'
  'BENCH_adversary.json|"runs_identical": true'
  'BENCH_difficulty.json|"skew_inflates": true'
  'BENCH_difficulty.json|"drift_rule_holds": true'
  'BENCH_difficulty.json|"steering_inflates_verify_cost": true'
  'BENCH_difficulty.json|"cost_rule_holds": true'
  'BENCH_difficulty.json|"runs_identical": true'
  'BENCH_scale.json|"runs_identical": true'
  'BENCH_scale.json|"threads_identical": true'
  'BENCH_scale.json|"eclipse_undefended_isolated": true'
  'BENCH_scale.json|"eclipse_defended_converged": true'
  'BENCH_persistence.json|"recovered_identical": true'
  'BENCH_persistence.json|"torn_tail_truncated": true'
  'BENCH_persistence.json|"runs_identical": true'
  'BENCH_light.json|"light_converged": true'
  'BENCH_light.json|"fake_proofs_rejected": true'
  'BENCH_light.json|"runs_identical": true'
)

# With arguments, restrict to the gates of exactly those artifacts.
selected=()
if (($# == 0)); then
  selected=("${gates[@]}")
else
  for artifact in "$@"; do
    matched=0
    for gate in "${gates[@]}"; do
      if [[ "${gate%%|*}" == "$artifact" ]]; then
        selected+=("$gate")
        matched=1
      fi
    done
    if ((matched == 0)); then
      echo "FAIL: no gates declared for $artifact" >&2
      exit 1
    fi
  done
fi

failures=0
for gate in "${selected[@]}"; do
  artifact=${gate%%|*}
  fragment=${gate#*|}
  if [[ ! -s "$artifact" ]]; then
    echo "FAIL $artifact: missing or empty" >&2
    failures=$((failures + 1))
    continue
  fi
  if grep -qxF -e "  $fragment" -e "  $fragment," "$artifact"; then
    echo "  ok $artifact: $fragment"
  else
    echo "FAIL $artifact: $fragment" >&2
    failures=$((failures + 1))
  fi
done

if ((failures > 0)); then
  echo "$failures gate(s) failed" >&2
  exit 1
fi
echo "all ${#selected[@]} gate(s) hold"
