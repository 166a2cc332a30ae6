#!/usr/bin/env bash
# Non-test Go lines per top-level package and in total; bench/ (a module
# of its own) is excluded. The figure simplicity PRs report before/after.
set -euo pipefail
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec wc -l {} + |
  awk '$2 != "total" { n = split($2, p, "/"); d = n == 2 ? "." : n == 3 ? p[2] : p[2] "/" p[3]; t[d] += $1; all += $1 }
       END { for (d in t) printf "%7d %s\n", t[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", all }'
