#!/usr/bin/env bash
# Bench-trajectory pipeline: runs cmd/benchfig in trajectory mode and
# compares the fresh run against the committed BENCH_<fig>.json
# baselines at the repo root, failing (exit 3) when any matching cell
# regresses beyond tolerance.
#
# The "serve" figure is special: instead of benchfig it boots a quiet
# olapd (no faults), drives scenarios/bench_serve.json (moderate
# concurrency, no client aborts, no fault injection) through loadgen,
# and compares the per-step p50/p99/mean cells against BENCH_serve.json
# using loadgen's own -baseline/-tolerance flags — the same exit-3
# contract, with a serve-specific tolerance because HTTP-path latencies
# ride the scheduler and the network stack.
#
# Usage:
#   scripts/bench_trajectory.sh               # compare fig4, fig5, prepared, memory, parallel, serve
#   scripts/bench_trajectory.sh fig4          # compare one figure
#   scripts/bench_trajectory.sh -update       # re-record all baselines
#   scripts/bench_trajectory.sh -update serve # re-record one baseline
#
# Environment overrides:
#   BENCH_TRAJECTORY_SCALE           row-count multiplier (default 0.0625)
#   BENCH_TRAJECTORY_REPEAT          measurements per cell (default 3)
#   BENCH_TRAJECTORY_TOLERANCE       allowed relative slowdown (default 0.15)
#   BENCH_TRAJECTORY_SERVE_TOLERANCE serve-figure tolerance (default 0.75)
#   PORT                             serve-figure olapd port (default 18081)
set -euo pipefail
cd "$(dirname "$0")/.."

scale="${BENCH_TRAJECTORY_SCALE:-0.0625}"
repeat="${BENCH_TRAJECTORY_REPEAT:-3}"
tolerance="${BENCH_TRAJECTORY_TOLERANCE:-0.15}"
serve_tolerance="${BENCH_TRAJECTORY_SERVE_TOLERANCE:-0.75}"
PORT="${PORT:-18081}"

update=0
if [ "${1:-}" = "-update" ]; then
  update=1
  shift
fi
figs=("$@")
if [ ${#figs[@]} -eq 0 ]; then
  figs=(fig4 fig5 prepared memory parallel serve)
fi

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"; if [ -n "${OLAPD_PID:-}" ] && kill -0 "$OLAPD_PID" 2>/dev/null; then kill -KILL "$OLAPD_PID" || true; fi' EXIT
bin="$bindir/benchfig"

# Committed baselines stay at the repo root; fresh-run measurements go
# under gitignored out/ so a compare run never dirties the tree.
mkdir -p out

serve_fig() { # $1 = 1 to re-record the baseline
  local target="http://127.0.0.1:${PORT}"
  go build -o "$bindir/olapd" ./cmd/olapd
  go build -o "$bindir/loadgen" ./cmd/loadgen
  "$bindir/olapd" -addr ":${PORT}" -data netflow -scale 0.2 -parallel 2 \
    -timeout 10s -log-level off &
  OLAPD_PID=$!
  for _ in $(seq 1 100); do
    curl -fsS "${target}/healthz" >/dev/null 2>&1 && break
    if ! kill -0 "$OLAPD_PID" 2>/dev/null; then
      echo "bench_trajectory: olapd died during startup" >&2
      return 1
    fi
    sleep 0.1
  done
  local commit rc=0
  commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  if [ "$1" = 1 ]; then
    "$bindir/loadgen" -scenario scenarios/bench_serve.json -target "$target" -q \
      -bench BENCH_serve.json -commit "$commit" > /dev/null || rc=$?
  else
    "$bindir/loadgen" -scenario scenarios/bench_serve.json -target "$target" -q \
      -bench out/BENCH_serve.current.json -commit "$commit" \
      -baseline BENCH_serve.json -tolerance "$serve_tolerance" > /dev/null || rc=$?
  fi
  kill -TERM "$OLAPD_PID" 2>/dev/null || true
  wait "$OLAPD_PID" 2>/dev/null || true
  OLAPD_PID=""
  return "$rc"
}

status=0
for fig in "${figs[@]}"; do
  baseline="BENCH_${fig}.json"
  if [ "$fig" = serve ]; then
    if [ "$update" = 1 ] || [ ! -f "$baseline" ]; then
      echo "bench_trajectory: recording baseline $baseline (serve figure)"
      serve_fig 1
    else
      echo "bench_trajectory: comparing serve against $baseline"
      rc=0
      serve_fig 0 || rc=$?
      if [ "$rc" -ne 0 ]; then
        status=3
      fi
    fi
    continue
  fi
  if [ ! -x "$bin" ]; then
    go build -o "$bin" ./cmd/benchfig
  fi
  if [ "$update" = 1 ] || [ ! -f "$baseline" ]; then
    echo "bench_trajectory: recording baseline $baseline"
    "$bin" -fig "$fig" -scale "$scale" -repeat "$repeat" -json "$baseline"
    continue
  fi
  echo "bench_trajectory: comparing $fig against $baseline"
  if ! "$bin" -fig "$fig" -scale "$scale" -repeat "$repeat" -json "out/BENCH_${fig}.current.json" \
      -baseline "$baseline" -tolerance "$tolerance"; then
    status=3
  fi
done
exit "$status"
