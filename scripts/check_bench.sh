#!/usr/bin/env bash
# Performance regression gates: plan-serving throughput and arbiter churn.
#
# Re-measures both suites in release mode and compares them to the
# checked-in baselines at the repo root:
#   - BENCH_plan_throughput.json — plans/sec through SolverService; the
#     binary exits 1 on a >20% plans/sec regression (the
#     microsecond-scale cache-hit metric rides a 3x band since it is
#     jitter-dominated).
#   - BENCH_arbiter_churn.json — arbiter grants/sec and snapshot sync
#     reads/sec; the binary exits 1 on a >20% grants/sec regression
#     (sync reads ride a 3x band) or if the sharded ledger's speedup
#     over a 1-shard configuration at 1000 tenants drops below 5x.
#
# Only arbiter_churn records a thread-scaling curve (1/2/4/8 caller
# threads). Its wall-clock is recorded but never gated, and on hosts
# where host_parallelism == 1 the bench skips the >1-thread points
# entirely (with a logged notice) instead of recording meaningless
# "speedups" into the baseline — CI runners expose varying CPU counts
# ("host_parallelism" in each JSON says what that run had).
#
# Usage:
#   scripts/check_bench.sh            # gate against the checked-in baselines
#   scripts/check_bench.sh --refresh  # re-measure and overwrite the baselines
set -euo pipefail

cd "$(dirname "$0")/.."
PLAN_BASELINE=BENCH_plan_throughput.json
CHURN_BASELINE=BENCH_arbiter_churn.json

if [[ "$(nproc 2>/dev/null || echo 1)" == "1" ]]; then
  echo "notice: this host exposes a single CPU — arbiter_churn's thread-scaling" >&2
  echo "notice: points beyond 1 thread are skipped, not gated (see bench output)" >&2
fi

if [[ "${1:-}" == "--refresh" ]]; then
  cargo run --release -p flexsp-bench --bin plan_throughput -- --out "$PLAN_BASELINE"
  echo "refreshed $PLAN_BASELINE"
  cargo run --release -p flexsp-bench --bin arbiter_churn -- --out "$CHURN_BASELINE"
  echo "refreshed $CHURN_BASELINE"
  exit 0
fi

for baseline in "$PLAN_BASELINE" "$CHURN_BASELINE"; do
  if [[ ! -f "$baseline" ]]; then
    echo "missing $baseline — run scripts/check_bench.sh --refresh and commit it" >&2
    exit 2
  fi
done

cargo run --release -p flexsp-bench --bin plan_throughput -- --check "$PLAN_BASELINE"
cargo run --release -p flexsp-bench --bin arbiter_churn -- --check "$CHURN_BASELINE"
