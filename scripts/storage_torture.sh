#!/usr/bin/env bash
# storage_torture.sh — crash/recovery torture for the durable columnar
# store.
#
# Drives olapcheck store through four gauntlets against one store
# directory:
#
#   1. kill -9 mid-churn, repeatedly: churn rewrites the deterministic
#      fig4/fig5 corpus round after round — and appends each round's
#      rows to tort_log, the one table that is never re-created and so
#      persists as a growing list of segment files — while the harness
#      kills the process at a random instant; every reopen must recover a
#      committed round whose tables are byte-identical to the
#      in-memory oracle, with the recovered round consistent with the
#      last "round=N gen=G" line churn managed to print (N or N+1 —
#      the transparent checkpoint can commit a round whose line never
#      made it out).
#   2. disk-fault matrix: churn runs to completion under injected
#      enospc / shortwrite / torn-rename faults at storage.write and
#      storage.manifest; failed checkpoints must leave the previous
#      generation committed, and the store must verify clean after.
#   3. quarantine: flip bytes in every on-disk segment of one table and
#      in one middle file of the several tort_log spans; recovery must
#      quarantine exactly those two tables (scans on them fail with the
#      typed segment-corrupt error) while every other table still
#      answers and both benchmark queries still match the oracle; one
#      churn round then heals them.
#   4. torn manifest: truncate the newest MANIFEST; recovery must skip
#      it and serve the previous generation.
#
# Verification runs under -race throughout. Env knobs: ROWS (corpus
# cardinality, default 4000), SEED, KILLS (phase-1 iterations, default
# 5), OUT_DIR.
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS="${ROWS:-4000}"
SEED="${SEED:-1}"
KILLS="${KILLS:-5}"
OUT_DIR="${OUT_DIR:-out}"
DIR="${OUT_DIR}/torture-store"
CHURN_LOG="${OUT_DIR}/torture-churn.log"

mkdir -p bin "${OUT_DIR}"
rm -rf "${DIR}"
go build -o bin/olapcheck ./cmd/olapcheck
go build -race -o bin/olapcheck.race ./cmd/olapcheck
go build -o bin/olapd ./cmd/olapd

CHURN_PID=""
cleanup() {
  if [[ -n "${CHURN_PID}" ]] && kill -0 "${CHURN_PID}" 2>/dev/null; then
    kill -KILL "${CHURN_PID}" 2>/dev/null || true
  fi
}
trap cleanup EXIT

verify() { # $@ = extra olapcheck store flags
  bin/olapcheck.race store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" verify "$@"
}

echo "== phase 0: initial load =="
bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" load
verify

echo "== phase 1: kill -9 mid-churn (${KILLS} rounds) =="
for i in $(seq 1 "${KILLS}"); do
  : > "${CHURN_LOG}"
  bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" churn \
    -rounds 100000 > "${CHURN_LOG}" 2>/dev/null &
  CHURN_PID=$!
  # Land the kill at a random instant inside the churn stream.
  sleep "0.$(( (RANDOM % 80) + 20 ))"
  sleep "$(( RANDOM % 2 ))"
  kill -KILL "${CHURN_PID}"
  wait "${CHURN_PID}" 2>/dev/null || true
  CHURN_PID=""

  LAST=$(sed -n 's/^round=\([0-9]*\) .*/\1/p' "${CHURN_LOG}" | tail -1)
  LAST="${LAST:-0}"
  OUT=$(verify)
  echo "${OUT}"
  GOT=$(sed -n 's/.*round=\([0-9]*\) .*/\1/p' <<< "${OUT}")
  if [[ "${GOT}" -lt "${LAST}" || "${GOT}" -gt $((LAST + 1)) ]]; then
    echo "storage_torture: kill ${i}: recovered round ${GOT}, but churn printed up to ${LAST}" >&2
    exit 1
  fi
done
echo "storage_torture: phase 1 clean (${KILLS} kill/recover cycles)"

echo "== phase 2: disk-fault matrix =="
# The @N rates are deterministic every-Nth firings; a churn round
# writes ~10 segments, so @23 fails roughly every other checkpoint at
# storage.write while letting the rest commit. enospc/shortwrite are
# detected at write time: the checkpoint fails, the previous
# generation stays committed, and a strict verify must pass. A torn
# write (lying fsync) is NOT detectable at write time — the commit
# goes through and recovery later quarantines the unreadable table —
# so those legs verify with -allow-quarantine and then heal with one
# clean churn round.
for FAULT in \
  "storage.write=enospc@23" \
  "storage.write=shortwrite@23" \
  "storage.manifest=enospc@4"; do
  echo "-- churn under GMDJ_FAULTS=${FAULT}"
  GMDJ_FAULTS="${FAULT}" bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" \
    -seed "${SEED}" churn -rounds 12 > "${CHURN_LOG}" 2>/dev/null
  COMMITTED=$(grep -c '^round=' "${CHURN_LOG}" || true)
  if [[ "${COMMITTED}" -eq 0 ]]; then
    echo "storage_torture: no round committed under ${FAULT} — rate too hot to measure recovery" >&2
    exit 1
  fi
  echo "   ${COMMITTED}/12 rounds committed"
  verify
done
for FAULT in \
  "storage.write=torn@23" \
  "storage.manifest=torn@4"; do
  echo "-- churn under GMDJ_FAULTS=${FAULT} (torn: quarantine tolerated, then healed)"
  GMDJ_FAULTS="${FAULT}" bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" \
    -seed "${SEED}" churn -rounds 12 > "${CHURN_LOG}" 2>/dev/null
  verify -allow-quarantine
  bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" churn -rounds 1 > /dev/null
  verify
done
echo "storage_torture: phase 2 clean (failed checkpoints never corrupted the committed generation)"

echo "== phase 3: segment corruption quarantines the tables it hits, and only those =="
# The append-only table: churn until it spans at least three files, then
# vandalize one that is neither its first nor its newest. One bad file
# of several must take the whole table out, not leave a hole in its rows.
log_files() {
  bin/olapcheck store -dir "${DIR}" segments | awk '$1 == "tort_log" { for (i = 3; i <= NF; i++) print $i }'
}
mapfile -t LOG_FILES < <(log_files)
while [[ "${#LOG_FILES[@]}" -lt 3 ]]; do
  bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" churn -rounds 1 > /dev/null
  mapfile -t LOG_FILES < <(log_files)
done
CORRUPTED=0
for f in "${DIR}"/A-*.seg; do
  [[ -e "$f" ]] || continue
  printf '\xde\xad\xbe\xef' | dd of="$f" bs=1 seek=64 conv=notrunc 2>/dev/null
  CORRUPTED=$((CORRUPTED + 1))
done
if [[ "${CORRUPTED}" -eq 0 ]]; then
  echo "storage_torture: no A-*.seg files to corrupt" >&2
  exit 1
fi
MIDDLE="${LOG_FILES[$(( ${#LOG_FILES[@]} / 2 ))]}"
echo "   tort_log spans ${#LOG_FILES[@]} files; corrupting ${MIDDLE}"
printf '\xde\xad\xbe\xef' | dd of="${DIR}/${MIDDLE}" bs=1 seek=64 conv=notrunc 2>/dev/null
verify -expect-quarantine A,tort_log
# A clean verify must now FAIL: the quarantine is real, not cosmetic.
if verify 2>/dev/null; then
  echo "storage_torture: verify ignored a corrupt segment" >&2
  exit 1
fi
# One churn round rewrites every table — tort_log from round 0, since
# what recovery left of it is a quarantine — healing both.
bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" churn -rounds 1
verify
echo "storage_torture: phase 3 clean (quarantine isolated the corrupt tables, churn healed them)"

echo "== phase 4: torn manifest falls back one generation =="
# One more clean round first: the fallback generation must not be the
# one phase 3 vandalized.
bin/olapcheck store -dir "${DIR}" -rows "${ROWS}" -seed "${SEED}" churn -rounds 1 > /dev/null
NEWEST=$(ls "${DIR}"/MANIFEST-* | sort | tail -1)
truncate -s 10 "${NEWEST}"
OUT=$(verify)
echo "${OUT}"
if [[ "${OUT}" != *"skipped_manifests=1"* ]]; then
  echo "storage_torture: expected exactly one skipped manifest, got: ${OUT}" >&2
  exit 1
fi

echo "== phase 5: olapd serves the tortured store and exports olap_storage_* =="
PORT="${PORT:-18099}"
TARGET="http://127.0.0.1:${PORT}"
bin/olapd -addr "127.0.0.1:${PORT}" -data none -data-dir "${DIR}" &
OLAPD_PID=$!
trap 'kill -KILL "${OLAPD_PID}" 2>/dev/null || true; cleanup' EXIT
for _ in $(seq 1 100); do
  curl -fsS "${TARGET}/healthz" >/dev/null 2>&1 && break
  if ! kill -0 "${OLAPD_PID}" 2>/dev/null; then
    echo "storage_torture: olapd died opening the tortured store" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "${TARGET}/metrics" > "${OUT_DIR}/torture_metrics.prom"
kill -TERM "${OLAPD_PID}" 2>/dev/null || true
wait "${OLAPD_PID}" 2>/dev/null || true
OLAPD_PID=""
bin/olapcheck prom -storage \
  -require "olap_storage_generation,olap_storage_tables,olap_storage_quarantined_tables,olap_storage_segments_written_total,olap_storage_segments_recovered_total,olap_storage_segments_quarantined_total,olap_storage_checkpoints_total,olap_storage_recoveries_total,olap_storage_manifests_skipped_total,olap_storage_bytes_written_total,olap_storage_bytes_read_total" \
  "${OUT_DIR}/torture_metrics.prom"
echo "storage_torture: phase 5 clean (recovered store served with full olap_storage_* exposition)"
echo "storage_torture: PASS"
