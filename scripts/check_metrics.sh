#!/usr/bin/env bash
# check_metrics.sh — scrape (or read) a Prometheus exposition and
# validate it with olapcheck prom: parseable text format, required serving
# and engine families declared, per-tenant funnel counters reconciling,
# tenant label cardinality under the cap.
#
# Usage:
#   scripts/check_metrics.sh http://127.0.0.1:18080/metrics   # scrape
#   scripts/check_metrics.sh out/metrics_midstorm.prom        # file
#
# Env knobs:
#   QUIESCED=1        require exact requests == responses (idle server)
#   MAX_TENANTS=n     tenant-label cardinality cap (default 33: the
#                     server default of 32 plus the _other fold-over)
#   REQUIRE=fams      comma-separated families that must be present
set -euo pipefail
cd "$(dirname "$0")/.."

SRC="${1:?usage: check_metrics.sh <url-or-file>}"
MAX_TENANTS="${MAX_TENANTS:-33}"
REQUIRE="${REQUIRE:-olap_requests_total,olap_responses_total,olap_request_duration_seconds,olap_tenant_admitted_total,gmdj_engine_events_total,gmdj_spill_bytes_written_total}"

mkdir -p bin
go build -o bin/olapcheck ./cmd/olapcheck

args=(-reconcile -max-tenant-labels "${MAX_TENANTS}" -require "${REQUIRE}")
if [[ "${QUIESCED:-0}" = "1" ]]; then
  args+=(-quiesced)
fi

if [[ "${SRC}" == http://* || "${SRC}" == https://* ]]; then
  curl -fsS "${SRC}" | bin/olapcheck prom "${args[@]}"
else
  bin/olapcheck prom "${args[@]}" "${SRC}"
fi
