#!/usr/bin/env bash
# Structural lint: each check keeps one fact in one place, so a second
# copy of it cannot come back unnoticed. CI's Lint step runs this file;
# run it from anywhere in the tree. A failing check names itself and
# prints what it matched. A check is `none` or `... || fail`, never an
# inverted grep: `set -e` does not act on a `!` pipeline.
set -eo pipefail
cd "$(dirname "$0")/.."

fail() {
	printf 'lint: %s\n' "$1" >&2
	exit 1
}

# none NAME OUTPUT: fail, showing OUTPUT, unless it is empty.
none() {
	[ -z "$2" ] || fail "$1"$'\n'"$2"
}

# One counter home (engine.Engine.Metrics): no process-global registry.
none "one counter home" "$(grep -rnE 'expvar\.|MetricAdd' --include=*.go internal *.go | grep -v _test.go)"
# One config resolution point: the GMDJ_* environment is read in one
# library file (internal/engine/engine.go, envDefaults).
test "$(grep -rlE 'os\.(Getenv|LookupEnv)' --include=*.go internal *.go | grep -v _test.go | wc -l)" -eq 1 || fail "one config resolution point"
# One row shape: operators exchange rows, with no batch/sink layer.
none "one row shape" "$(grep -rnE 'relation\.Batch|BatchOp|NextBatch|engine\.Sink' --include=*.go internal cmd *.go)"
# One cell hash: value.Hash is a fixed function whose key fold
# (value.FoldHash) has one definition (DESIGN §5.1).
none "one cell hash (no maphash)" "$(grep -rn 'hash/maphash' --include=*.go internal cmd *.go)"
test "$(grep -rl '1099511628211' --include=*.go internal | grep -v _test.go | wc -l)" -le 2 || fail "one cell hash (one FNV prime home)"
# One hash index: the GMDJ, the hash join and storage's secondary index
# all bucket positions in relation.HashIndex.
none "one hash index" "$(grep -rn 'map\[uint64\]' --include=*.go internal | grep -v _test.go)"
# Pruning a scan reads per-column zone maps (storage.Table.Zones) and
# never packs a segment.
none "no segment pack under a scan" "$(grep -n '\.Segment()' internal/exec/prune.go)"
# One statement path: SQL text compiles in one file (the root's compile;
# benchlab times the stages apart), rows enter a table through
# storage.Table.Append, and exit codes come from gmdj.Classify.
test "$(grep -rl 'sql\.ParseAndResolve(' --include=*.go internal cmd *.go | grep -v -e _test.go -e '^internal/benchlab/' | wc -l)" -eq 1 || fail "one statement path (one compile)"
none "one statement path (one append)" "$(grep -rnE '\.Rel\.(Append\(|Rows = )' --include=*.go internal cmd examples *.go | grep -v -e _test.go -e '^internal/storage/')"
none "one statement path (one error table)" "$(grep -rnE 'errors\.Is\(err, gmdj\.Err(Timeout|Canceled|RowBudget|MemBudget|SpillIO|SegmentCorrupt)' cmd)"
# One predicate evaluator: θ, σ and ON run as a compiled expr.Pred; the
# tree-walking interpreter is called by its generic leaf only.
none "one predicate evaluator" "$(grep -rn 'expr\.EvalTri(' --include=*.go internal/gmdj internal/exec | grep -v _test.go)"
# No init-time registry: importing a package registers nothing.
none "no init-time registry" "$(grep -rn '^func init()' --include=*.go internal cmd examples *.go | grep -v _test.go)"
# One scenario format: loadgen scenarios are JSON (encoding/json).
none "one scenario format (no YAML parser)" "$(grep -rn 'func ParseYAML' --include=*.go .)"
none "one scenario format (no YAML scenarios)" "$(ls scenarios/*.yaml 2>/dev/null)"
# One way to configure: engine.New resolves every execution knob into
# one Config; no setter changes one afterwards.
none "one way to configure" "$(grep -rnE 'func \(e \*Engine\) Set(Budget|FaultInjector|UseIndexes|Parallelism|MemoizeSubqueries|PlanCache|MemoryLimit|SpillDir|AdmissionTimeout)\(' internal/engine)"
# A non-comparable 32-byte Value: the zero-size func field comes first,
# so it adds no padding and == on a Value does not compile.
grep -A1 '^type Value struct' internal/value/value.go | grep -qE '^\s+_\s+\[0\]func\(\)$' || fail "a non-comparable Value"
# One fold state: aggregates fold into agg.State's typed columns.
none "one fold state" "$(grep -rnE 'agg\.(Accumulator|NewAccumulator|NewRows)' --include=*.go internal *.go | grep -v _test.go)"
# No cross-query result memo: a query shares no materialized relation
# with another; the plan cache is the one cache layer.
none "no cross-query result memo" "$(grep -rnE 'ResultCache|ResultKey|EpochTag|WithResultCache' --include=*.go internal cmd examples *.go | grep -v _test.go)"
# One detail-key hasher: the detail pass (detailMorsel) hashes every key
# a hash-bound fold reads; hashRows, unexported, has no caller elsewhere.
none "one detail-key hasher (hashRows called from detailMorsel only)" "$(awk '/^func /{f=$0} /hashRows\(/ && !/^func / && f !~ /\) detailMorsel\(/{print FILENAME": "f}' $(ls internal/gmdj/*.go | grep -v _test.go))"
# One plan rebuilder, one output-column rule, one zone-map builder:
# passes rebuild through algebra.MapInputs (only internal/sql builds Sort
# and SetOp), output columns come from algebra's *Schema functions, and
# Table.Zones builds zone maps.
none "one plan rebuilder" "$(grep -rlE 'algebra\.New(SetOp|Sort)\(' --include=*.go internal | grep -v _test.go | grep -v '^internal/sql/')"
none "one output-column rule, one zone-map builder" "$(grep -rnE 'func projectSchemaFrom|func \(s \*Segment\) buildZones' --include=*.go internal | grep -v _test.go)"
# One non-neighbor push-down (Thms 3.3/3.4): rewrite and unnest share
# algebra.Scope.
none "one non-neighbor push-down" "$(grep -rnE 'type envEntry|func findEnv|fresh\("pd"\)|func \(rw \*rewriter\) eliminate' --include=*.go internal/rewrite internal/unnest | grep -v _test.go)"
# One σ/π pass: Restrict, Project and Distinct run through the chain
# runner (internal/exec/chain.go), inside a GMDJ's emit over a GMDJ; only
# it and the hash join concatenate morsel buffers; nothing selects an
# unfused path.
none "one σ/π pass (no staged operators)" "$(grep -rnE 'func \(e \*Executor\) eval(Restrict|Project|Distinct)\(' internal/exec)"
test "$(grep -rn 'concatMorsels(' --include=*.go internal/exec | grep -v -e _test.go -e 'func concatMorsels' | cut -d: -f1 | sort | tr '\n' ' ')" = "internal/exec/chain.go internal/exec/join.go " || fail "one σ/π pass (concatMorsels callers)"
none "one σ/π pass (no fusion field)" "$({ awk '/^type Options struct/,/^}/' internal/gmdj/gmdj.go; awk '/^type Config struct/,/^}/' internal/engine/engine.go; } | grep -E '^\s+[A-Za-z]*(Fus|Stag)[A-Za-z]*\s')"
none "one σ/π pass (no fusion env)" "$(grep -rnE 'GMDJ_[A-Z_]*(FUS|STAG)' --include=*.go internal *.go)"
# One θ split: the GMDJ, the hash join and selection push-down split a
# θ or an ON clause with algebra.SplitTheta (DESIGN §5), not by qualifier.
none "one θ split" "$(grep -rnE 'SplitBindings|EquiBinding|schemaQualifiers' --include=*.go internal cmd examples *.go | grep -v _test.go)"
# The documents that describe the system stay readable in one sitting:
# DESIGN.md and CHANGES.md together hold at most 80 KiB.
docs=$(cat DESIGN.md CHANGES.md | wc -c)
test "$docs" -le 81920 || fail "docs under 80 KiB (DESIGN.md + CHANGES.md hold $docs B)"

# Every DESIGN §N or DESIGN.md §N.M cited in a tracked file outside
# bench/ names a numbered ## or ### heading of DESIGN.md. One quoted as
# code, between backticks, is an example under discussion, not a
# reference, and is skipped.
# The check reads its files in a substitution, whose status none cannot
# see, so the file list is checked to come up first.
sections=$(sed -nE 's/^###? ([0-9]+(\.[0-9]+)?)\.? .*/\1/p' DESIGN.md)
git ls-files --error-unmatch DESIGN.md >/dev/null || fail "DESIGN citations (git ls-files)"
none "DESIGN citations" "$(git ls-files -z | grep -zv '^bench/' |
	xargs -0 grep -HInoE '`?DESIGN(\.md)? §[0-9]+(\.[0-9]+)?' |
	while IFS= read -r hit; do
		cite=${hit#*:*:}
		[[ $cite == '`'* ]] || grep -qxF "${cite##*§}" <<<"$sections" || echo "$hit"
	done)"
