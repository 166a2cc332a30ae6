#!/usr/bin/env bash
# Runs the whole suite with GMDJ_DATA_DIR set, so every test runs on the
# durable path, then fails if any engine left its directory under the
# root. Usage: scripts/datadir_suite.sh [ROOT] (default: a fresh temp dir).
set -eo pipefail
cd "$(dirname "$0")/.."
root=${1:-$(mktemp -d)}
mkdir -p "$root"
GMDJ_DATA_DIR="$root" go test ./...
left=$(ls -A "$root")
[ -z "$left" ] || { printf 'datadir_suite: left under %s:\n%s\n' "$root" "$left" >&2; exit 1; }
