#!/usr/bin/env bash
# Runs the reproduction benches at smoke scale and archives the numbers
# under bench/results/<UTC timestamp>/ so the perf trajectory is measurable
# PR-over-PR. Raw stdout is kept per bench next to parsed JSON summaries.
#
# Usage: tools/run_benches.sh [build_dir] [results_root]
#
# Scale knobs (exported only if unset, so callers/CI can override):
#   SPARQLSIM_LUBM_UNIVERSITIES (default 2)
#   SPARQLSIM_DBPEDIA_SCALE     (default 1)
#   SPARQLSIM_BENCH_REPS        (default 2)
#   SPARQLSIM_PARALLEL_QUERIES  (default 6)
#   SPARQLSIM_SERVICE_PUBLISHES (default 8; snapshot-churn publications)
#   SPARQLSIM_DB                optional ingested .gdb all benches run on
#   SPARQLSIM_PUBLISH_SUMMARY   1 to also copy the consolidated summary to
#                               the committed repo-root BENCH_summary.json
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
RESULTS_ROOT="${2:-$REPO_ROOT/bench/results}"
STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
RUN_DIR="$RESULTS_ROOT/$STAMP"

REQUIRED_BENCHES=(bench_table2 bench_table3 bench_ablation bench_parallel
                  bench_service bench_standing bench_outofcore)

# A build dir cached with SPARQLSIM_BUILD_BENCH=OFF used to make this
# script a silent no-op (every bench "not built, skipping", empty summary).
# Detect the stale cache, reconfigure with benches on, build what is
# missing, and fail loudly if a required bench still cannot be produced.
ensure_benches_built() {
  local missing=()
  local b
  for b in "${REQUIRED_BENCHES[@]}"; do
    [[ -x "$BUILD_DIR/$b" ]] || missing+=("$b")
  done
  ((${#missing[@]})) || return 0

  local cache="$BUILD_DIR/CMakeCache.txt"
  if [[ ! -f "$cache" ]]; then
    echo "[run_benches] $BUILD_DIR is not configured; configuring with" \
         "SPARQLSIM_BUILD_BENCH=ON" >&2
    cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DSPARQLSIM_BUILD_BENCH=ON >&2
  elif grep -q '^SPARQLSIM_BUILD_BENCH:BOOL=OFF$' "$cache"; then
    echo "[run_benches] stale cache: SPARQLSIM_BUILD_BENCH=OFF in" \
         "$BUILD_DIR; reconfiguring" >&2
    cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DSPARQLSIM_BUILD_BENCH=ON >&2
  fi
  echo "[run_benches] building missing benches: ${missing[*]}" >&2
  cmake --build "$BUILD_DIR" -j --target "${missing[@]}" >&2

  for b in "${REQUIRED_BENCHES[@]}"; do
    if [[ ! -x "$BUILD_DIR/$b" ]]; then
      echo "[run_benches] ERROR: $b still missing after reconfigure" >&2
      exit 1
    fi
  done
}
ensure_benches_built

mkdir -p "$RUN_DIR"

export SPARQLSIM_LUBM_UNIVERSITIES="${SPARQLSIM_LUBM_UNIVERSITIES:-2}"
export SPARQLSIM_DBPEDIA_SCALE="${SPARQLSIM_DBPEDIA_SCALE:-1}"
export SPARQLSIM_BENCH_REPS="${SPARQLSIM_BENCH_REPS:-2}"
export SPARQLSIM_PARALLEL_QUERIES="${SPARQLSIM_PARALLEL_QUERIES:-6}"
export SPARQLSIM_SERVICE_PUBLISHES="${SPARQLSIM_SERVICE_PUBLISHES:-8}"

run_bench() {
  local name="$1"
  local bin="$BUILD_DIR/$name"
  if [[ ! -x "$bin" ]]; then
    # ensure_benches_built guarantees the required set; anything missing
    # here is a hard failure, not a silent skip.
    echo "[run_benches] ERROR: $name not built" >&2
    exit 1
  fi
  echo "[run_benches] running $name ..." >&2
  local t0 t1
  t0=$(date +%s.%N)
  "$bin" >"$RUN_DIR/$name.txt" 2>"$RUN_DIR/$name.log"
  t1=$(date +%s.%N)
  echo "$name $(echo "$t1 $t0" | awk '{printf "%.3f", $1 - $2}')" \
    >>"$RUN_DIR/wallclock.txt"
}

# Table 2/3 + ablation smoke runs, plus the thread-scaling and service
# throughput benches (which write their own structured JSON).
run_bench bench_table2
run_bench bench_table3
SPARQLSIM_BENCH_JSON="$RUN_DIR/bench_ablation.json" run_bench bench_ablation
SPARQLSIM_BENCH_JSON="$RUN_DIR/bench_parallel.json" run_bench bench_parallel
SPARQLSIM_BENCH_JSON="$RUN_DIR/bench_service.json" run_bench bench_service
SPARQLSIM_BENCH_JSON="$RUN_DIR/bench_standing.json" run_bench bench_standing
SPARQLSIM_BENCH_JSON="$RUN_DIR/bench_outofcore.json" run_bench bench_outofcore

# Parse the bench tables' "total" rows into one summary JSON. awk fields:
# bench_table2: total t_soi t_ma speedup / bench_table3 has its own shape —
# keep it generic: archive every line starting with "total".
{
  echo '{'
  echo "  \"timestamp\": \"$STAMP\","
  echo "  \"git_rev\": \"$(git -C "$REPO_ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)\","
  echo "  \"scale\": {"
  echo "    \"lubm_universities\": $SPARQLSIM_LUBM_UNIVERSITIES,"
  echo "    \"dbpedia_scale\": $SPARQLSIM_DBPEDIA_SCALE,"
  echo "    \"reps\": $SPARQLSIM_BENCH_REPS"
  echo "  },"
  echo '  "totals": {'
  first=1
  for name in bench_table2 bench_table3; do
    [[ -f "$RUN_DIR/$name.txt" ]] || continue
    total_line=$(grep -m1 '^total' "$RUN_DIR/$name.txt" || true)
    [[ -n "$total_line" ]] || continue
    soi=$(echo "$total_line" | awk '{print $2}')
    other=$(echo "$total_line" | awk '{print $3}')
    [[ $first -eq 1 ]] || echo ','
    first=0
    printf '    "%s": {"t_sparqlsim": %s, "t_baseline": %s}' \
      "$name" "${soi:-0}" "${other:-0}"
  done
  echo ''
  echo '  },'
  echo "  \"wallclock_seconds\": {"
  if [[ -f "$RUN_DIR/wallclock.txt" ]]; then
    awk '{printf "%s    \"%s\": %s", (NR==1 ? "" : ",\n"), $1, $2} END {print ""}' \
      "$RUN_DIR/wallclock.txt"
  fi
  echo '  },'
  # The benches honor SPARQLSIM_DB (real ingested database) — record which
  # data the numbers were measured on.
  echo "  \"db\": \"${SPARQLSIM_DB:-synthetic}\","
  # Structured per-bench JSON, embedded verbatim: the ablation block carries
  # each solver-strategy variant's solve-time quartiles (p25/p50/p75) and
  # rounds/updates/eval counters, parallel the thread scaling, service the
  # throughput numbers across the worker and snapshot-churn axes (samples[]
  # + the churn object).
  echo '  "ablation":'
  cat "$RUN_DIR/bench_ablation.json"
  echo '  ,"parallel":'
  cat "$RUN_DIR/bench_parallel.json"
  echo '  ,"service":'
  cat "$RUN_DIR/bench_service.json"
  # standing: incremental maintenance vs cold recompute over a small-delta
  # update stream (headline.speedup is the maintain-vs-recompute ratio).
  echo '  ,"standing":'
  cat "$RUN_DIR/bench_standing.json"
  # outofcore: SQSIMDB2 cold-open + first-query latency of the lazy
  # mmap-backed loader vs the eager v1/v2 paths, with backing counters
  # (resident/materializations/evictions) per variant.
  echo '  ,"outofcore":'
  cat "$RUN_DIR/bench_outofcore.json"
  echo '}'
} >"$RUN_DIR/summary.json"

# Publish the consolidated summary at the repo root (committed, unlike the
# gitignored bench/results/ archive) so the perf trajectory is tracked
# PR-over-PR. Opt-in (SPARQLSIM_PUBLISH_SUMMARY=1): a casual smoke run must
# not silently overwrite the committed trajectory artifact with tiny-scale
# numbers.
if [[ "${SPARQLSIM_PUBLISH_SUMMARY:-0}" == "1" ]]; then
  cp "$RUN_DIR/summary.json" "$REPO_ROOT/BENCH_summary.json"
  echo "[run_benches] consolidated summary published to" \
       "$REPO_ROOT/BENCH_summary.json" >&2
else
  echo "[run_benches] SPARQLSIM_PUBLISH_SUMMARY!=1: leaving the committed" \
       "BENCH_summary.json untouched (summary at $RUN_DIR/summary.json)" >&2
fi

echo "[run_benches] results archived in $RUN_DIR" >&2
ls -l "$RUN_DIR" >&2
