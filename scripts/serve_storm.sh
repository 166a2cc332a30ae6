#!/usr/bin/env bash
# serve_storm.sh — end-to-end chaos gauntlet for the serving layer.
#
# Boots olapd with serve-site fault injection and the goroutine leak
# check, runs the cancellation-storm scenario through loadgen, and then
# repeats the storm with a SIGTERM landing mid-flight to exercise the
# drain state machine.
#
# The scenario (scenarios/cancel_storm.json) holds >= 200 concurrent
# sessions where 10% of clients hang up mid-request, short per-request
# timeouts force typed timeout aborts, and a starved tenant sheds on its
# admission deadline. Every outcome must be 200 or a typed kind; client
# aborts are by design. Its SLO: under the default fault spec the
# default tenant's server-attributed failure rate sits near 6%, so an
# availability objective of 0.75 gives a max burn of 1.0 real headroom
# while still catching a serving layer that starts failing most
# requests. The starved tenant carries no SLO: shedding it on the
# admission deadline is the designed outcome, not a breach.
#
# Fails if:
#
#   - loadgen observes any non-typed outcome or an SLO burn violation
#     (phase 1),
#   - the /metrics exposition scraped mid-storm or after quiescing is
#     invalid, fails per-tenant reconciliation, or exceeds the tenant
#     label cap (scripts/check_metrics.sh),
#   - a CPU profile sampled mid-storm fails to attribute samples to
#     tenants/strategies via pprof labels (olapcheck bundle, file mode),
#   - the forced SLO-burn trigger (-incident-burn 0.05, under the
#     storm's ~0.16 burn) fails to produce exactly one incident bundle,
#     or the bundle fails validation (olapcheck bundle),
#   - olapd exits non-zero after drain (either phase), including exit
#     12 from the leak check,
#   - drain overruns its budget.
#
# Artifacts land under out/ (gitignored): BENCH_serve_storm.json
# (per-step latency percentiles), serve_storm_result.json,
# serve_slowlog.json, metrics_midstorm.prom, metrics_quiesced.prom,
# cpu_midstorm.pprof, the profile ring + incident bundles under
# out/profiles/, and olap-trace.json (server spans + operator events;
# load in https://ui.perfetto.dev).
#
# Env knobs: PORT (default 18080), SCALE (dataset scale, default 0.2),
# OUT_DIR, BENCH_OUT, FAULTS (GMDJ_FAULTS spec for olapd).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${PORT:-18080}"
SCALE="${SCALE:-0.2}"
OUT_DIR="${OUT_DIR:-out}"
BENCH_OUT="${BENCH_OUT:-${OUT_DIR}/BENCH_serve_storm.json}"
FAULTS="${FAULTS:-serve.accept=error@25,serve.write=error@50,serve.cancel=error@3}"
TARGET="http://127.0.0.1:${PORT}"
PROFILE_DIR="${OUT_DIR}/profiles"
OLAPD_ARGS=(-addr ":${PORT}" -data netflow -scale "${SCALE}" -parallel 2
  -timeout 5s -max-timeout 30s -drain-timeout 8s -admin -leak-check
  -slow-ms 250 -slowlog "${OUT_DIR}/serve_slowlog.json"
  -slo "default:avail=0.75"
  -quota "inflight=128,admission=2s"
  -tenants "starved:inflight=2,admission=100ms"
  -profile-dir "${PROFILE_DIR}" -profile-interval 3s -profile-cpu 1s
  -incident-burn 0.05 -incident-min-interval 15m)

mkdir -p bin "${OUT_DIR}"
rm -rf "${PROFILE_DIR}"
go build -o bin/olapd ./cmd/olapd
go build -o bin/loadgen ./cmd/loadgen
go build -o bin/olapcheck ./cmd/olapcheck

OLAPD_PID=""
cleanup() {
  if [[ -n "${OLAPD_PID}" ]] && kill -0 "${OLAPD_PID}" 2>/dev/null; then
    kill -KILL "${OLAPD_PID}" 2>/dev/null || true
  fi
}
trap cleanup EXIT

start_olapd() {
  GMDJ_FAULTS="${FAULTS}" bin/olapd "${OLAPD_ARGS[@]}" &
  OLAPD_PID=$!
  for _ in $(seq 1 100); do
    if curl -fsS "${TARGET}/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "${OLAPD_PID}" 2>/dev/null; then
      echo "serve_storm: olapd died during startup" >&2
      return 1
    fi
    sleep 0.1
  done
  echo "serve_storm: olapd never became healthy" >&2
  return 1
}

stop_olapd() { # $1 = label
  kill -TERM "${OLAPD_PID}"
  local waited=0
  while kill -0 "${OLAPD_PID}" 2>/dev/null; do
    sleep 0.25
    waited=$((waited + 1))
    if [[ ${waited} -ge 80 ]]; then # 20s >> drain budget 8s + grace
      echo "serve_storm: ${1}: olapd did not exit within 20s of SIGTERM" >&2
      kill -KILL "${OLAPD_PID}" 2>/dev/null || true
      return 1
    fi
  done
  local rc=0
  wait "${OLAPD_PID}" || rc=$?
  OLAPD_PID=""
  if [[ ${rc} -ne 0 ]]; then
    echo "serve_storm: ${1}: olapd exited ${rc} (12 = goroutine leak)" >&2
    return 1
  fi
  echo "serve_storm: ${1}: olapd drained and exited 0"
}

echo "== phase 1: cancellation storm under fault injection =="
start_olapd
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
bin/loadgen -scenario scenarios/cancel_storm.json -target "${TARGET}" \
  -bench "${BENCH_OUT}" -commit "${COMMIT}" > "${OUT_DIR}/serve_storm_result.json" &
LOADGEN_PID=$!

# Scrape /metrics while the storm is at full boil: the exposition must
# stay parseable and the funnel counters must reconcile (requests >=
# responses; the gap is the in-flight count) even under concurrent
# mutation.
sleep 8
curl -fsS "${TARGET}/metrics" > "${OUT_DIR}/metrics_midstorm.prom"
bin/olapcheck prom -reconcile -storage -max-tenant-labels 33 \
  -require "olap_requests_total,olap_responses_total,olap_request_duration_seconds,olap_slo_error_budget_burn,gmdj_engine_events_total" \
  "${OUT_DIR}/metrics_midstorm.prom"
echo "serve_storm: mid-storm /metrics scrape valid"

# Sample a CPU profile while the storm is at full boil and assert the
# per-tenant attribution contract: samples must carry the tenant and
# strategy pprof labels the serving layer stamps on every query. The
# endpoint 500s when the cadence profiler holds the (process-global)
# CPU profiler, so retry across its window.
PROFILE_OK=0
for _ in $(seq 1 10); do
  if curl -fsS "${TARGET}/debug/pprof/profile?seconds=4" > "${OUT_DIR}/cpu_midstorm.pprof" 2>/dev/null; then
    PROFILE_OK=1
    break
  fi
  sleep 1
done
if [[ ${PROFILE_OK} -ne 1 ]]; then
  echo "serve_storm: could not sample /debug/pprof/profile mid-storm" >&2
  exit 1
fi
bin/olapcheck bundle -labels "tenant,strategy" "${OUT_DIR}/cpu_midstorm.pprof"
echo "serve_storm: mid-storm CPU profile attributes samples by tenant/strategy"

LOADGEN_RC=0
wait "${LOADGEN_PID}" || LOADGEN_RC=$?
if [[ ${LOADGEN_RC} -ne 0 ]]; then
  echo "serve_storm: loadgen exited ${LOADGEN_RC} (1 = non-typed outcomes, 4 = SLO burn violation)" >&2
  exit 1
fi
echo "serve_storm: phase 1 clean (results in ${OUT_DIR}/serve_storm_result.json, bench in ${BENCH_OUT})"

# Quiesced scrape: no traffic in flight, so every tenant's requests
# counter must exactly equal its summed responses.
sleep 1
curl -fsS "${TARGET}/metrics" > "${OUT_DIR}/metrics_quiesced.prom"
bin/olapcheck prom -reconcile -quiesced -storage -max-tenant-labels 33 "${OUT_DIR}/metrics_quiesced.prom"
echo "serve_storm: quiesced /metrics reconciles exactly"

# The trace ring holds the storm's tail: serving-phase spans (request,
# tenant-gate, execute, serialize) tagged rid=.../tenant=... next to
# the engine's plan/operator events, one Perfetto timeline.
curl -fsS "${TARGET}/debug/olap/trace" > "${OUT_DIR}/olap-trace.json"
python3 -c "import json,sys; json.load(open('${OUT_DIR}/olap-trace.json'))" 2>/dev/null \
  || { echo "serve_storm: downloaded trace is not valid JSON" >&2; exit 1; }
echo "serve_storm: trace downloaded ($(wc -c < "${OUT_DIR}/olap-trace.json") bytes)"

# The storm's failure rate (~4% injected faults against a 25% error
# budget) holds the SLO burn near 0.16 — under loadgen's violation
# threshold of 1.0, but past the forced -incident-burn 0.05 trigger.
# The flight recorder must have caught it: exactly one bundle (the
# 15m rate limit suppresses the storm of repeat firings), complete and
# checksummed, with the trace, slowlog, metrics scrape, and profiles
# inside.
BUNDLES=("${PROFILE_DIR}/incidents"/incident-*)
if [[ ${#BUNDLES[@]} -ne 1 || ! -d "${BUNDLES[0]}" ]]; then
  echo "serve_storm: expected exactly one incident bundle, found: ${BUNDLES[*]}" >&2
  exit 1
fi
bin/olapcheck bundle \
  -require "goroutines.txt,metrics.prom,trace.json,slowlog.json,config.json,heap.pprof,goroutine.pprof,mutex.pprof,cpu.pprof" \
  -cpu-labels "tenant,strategy" \
  "${BUNDLES[0]}"
echo "serve_storm: SLO-burn incident produced one validated bundle (${BUNDLES[0]})"

stop_olapd "phase 1 shutdown"

echo "== phase 2: SIGTERM mid-storm =="
start_olapd
bin/loadgen -scenario scenarios/cancel_storm.json -target "${TARGET}" -q \
  > /dev/null 2>&1 &
LOADGEN_PID=$!
sleep 6 # land the signal inside the 15s storm step
# loadgen keeps hammering while the server drains; its outcomes after
# the listener closes are transport errors by design, so only olapd's
# exit code is asserted here.
stop_olapd "mid-storm drain" || { kill "${LOADGEN_PID}" 2>/dev/null || true; exit 1; }
kill "${LOADGEN_PID}" 2>/dev/null || true
wait "${LOADGEN_PID}" 2>/dev/null || true

echo "serve_storm: PASS"
