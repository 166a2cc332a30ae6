// Package exec evaluates logical plans (internal/algebra) against a
// catalog, one operator at a time, materializing intermediate
// relations. It contains:
//
//   - the classical operators (scan, filter, project, distinct, joins
//     with hash acceleration, grouped aggregation),
//   - the dispatch into the GMDJ physical operator (internal/gmdj), and
//   - the native subquery evaluator (subquery.go): tuple-iteration
//     semantics with the vendor-style refinements the paper ascribes to
//     its target DBMS — index lookups, first-match EXISTS, and the
//     early-exit "smart nested loop" for ALL.
package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// Executor evaluates plans against a catalog.
type Executor struct {
	// Cat supplies base tables.
	Cat *storage.Catalog
	// UseIndexes lets the native subquery evaluator and scans exploit
	// secondary indexes; the paper's unindexed experiment variants set
	// this false (GMDJ plans are unaffected either way).
	UseIndexes bool
	// MemoizeSubqueries caches subquery outcomes per distinct outer
	// correlation binding — Rao & Ross's invariant reuse [23], an
	// optional refinement of the native strategy.
	MemoizeSubqueries bool
	// Parallelism is the morsel-driven degree: how many workers each
	// parallel operator pipeline may use (table-scan morsels through
	// filters and projections, hash-join build and probe, GMDJ detail
	// scans). 0 and 1 mean serial. Operators clamp further so small
	// inputs never pay goroutine overhead (see pipelineWorkers).
	Parallelism int
	// Faults injects deterministic failures at named operator sites
	// (nil = no injection). Set once at engine construction; read-only
	// during evaluation, so concurrent queries are safe.
	Faults *govern.Injector
	// Spill, when non-nil, is the engine's file-backed store for
	// operator state evicted under memory pressure; GMDJ nodes use it
	// to spill base partitions when the query reservation (carried by
	// the governor) is exhausted. Nil keeps the pre-spill behavior:
	// reservation exhaustion is a hard memory-budget error.
	Spill *spill.Store

	// The executor-level event counters, over every query run and each
	// bumped where its event happens — so a query that aborts has still
	// counted the work it did: base-table rows produced by Scan
	// operators, the zone-map blocks they skipped, materialized subquery
	// sources that did not fit their query's reservation (see
	// chargeSubquery), and the summed GMDJ operator counters (except
	// WorkerRows, which describes one evaluation).
	rowsScanned, segmentsPruned, subqueryOvercommit atomic.Int64
	gmdjMu                                          sync.Mutex
	gmdjTotals                                      gmdj.Stats
}

// Counters snapshots the executor's event counters.
func (e *Executor) Counters() (rowsScanned, segmentsPruned, subqueryOvercommit int64, g gmdj.Stats) {
	e.gmdjMu.Lock()
	defer e.gmdjMu.Unlock()
	return e.rowsScanned.Load(), e.segmentsPruned.Load(), e.subqueryOvercommit.Load(), e.gmdjTotals
}

// New builds an executor with index use enabled.
func New(cat *storage.Catalog) *Executor {
	return &Executor{Cat: cat, UseIndexes: true}
}

// TableSchema implements algebra.SchemaResolver.
func (e *Executor) TableSchema(name string) (*relation.Schema, error) {
	t, err := e.Cat.Table(name)
	if err != nil {
		return nil, err
	}
	return t.Rel.Schema, nil
}

// Run evaluates a plan to a materialized relation, ungoverned.
func (e *Executor) Run(plan algebra.Node) (*relation.Relation, error) {
	return e.RunObserved(plan, nil, nil)
}

// RunObserved evaluates a plan under a per-query governor and an
// optional statistics collector (nil = the governed fast path; every
// observability hook is then one nil check). It is the engine's panic
// boundary: an operator panic is recovered here and converted into a
// typed *govern.InternalError carrying the plan node under evaluation,
// so a buggy or injected-fault operator aborts the query, not the
// process. (Parallel GMDJ workers recover on their own goroutines and
// feed the same taxonomy.)
func (e *Executor) RunObserved(plan algebra.Node, gov *govern.Governor, col *obs.Collector) (*relation.Relation, error) {
	return e.RunLive(plan, gov, col, nil)
}

// RunLive is RunObserved plus a live-registry entry (nil = none):
// operator loops bump its row/byte/scan counters as they materialize
// output, which is what the /debug/olap/queries dashboard reads while
// the query is still running.
func (e *Executor) RunLive(plan algebra.Node, gov *govern.Governor, col *obs.Collector, live *obs.LiveQuery) (out *relation.Relation, err error) {
	q := &query{gov: gov, faults: e.Faults, col: col, live: live}
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = &govern.InternalError{Panic: r, Node: fmt.Sprintf("%T", q.node), Stack: debug.Stack()}
		}
		// Release operator memory charges even when evaluation unwound
		// through a panic or an abort — the reservation outlives this
		// call (the engine releases it), so leaked charges would starve
		// the next operator of the same query... and the trackers are
		// the only record of what was charged.
		for _, t := range q.trackers {
			t.Release()
		}
	}()
	if err := gov.Check(); err != nil {
		return nil, err
	}
	return e.eval(plan, newEnv(q))
}

// query is the per-run state shared by every operator of one
// evaluation: the budget governor, the fault injector, the optional
// stats collector, and the most recently entered plan node (recorded so
// a recovered panic can report where it fired).
type query struct {
	gov    *govern.Governor
	faults *govern.Injector
	col    *obs.Collector
	live   *obs.LiveQuery
	node   algebra.Node
	// trackers collects the per-operator memory trackers handed out
	// during this evaluation so RunLive can release their charges even
	// when an operator aborts or panics mid-flight.
	trackers []*mem.Tracker
}

// tracker derives a named per-operator tracker from the query's
// reservation (carried by the governor) and registers it for release at
// the end of the run. The nil-safe chain means ungoverned or
// unreserved queries get a nil tracker, i.e. unlimited.
func (q *query) tracker(name string) *mem.Tracker {
	if q == nil {
		return nil
	}
	t := q.gov.Reservation().Tracker(name)
	if t != nil {
		q.trackers = append(q.trackers, t)
	}
	return t
}

// tick is the cooperative cancellation check for operator row loops.
func (q *query) tick() error {
	if q == nil {
		return nil
	}
	return q.gov.Tick()
}

// account charges one materialized row against the query budgets and
// bumps the live progress counters. Ungoverned, unobserved queries
// (both nil) pay two nil checks.
func (q *query) account(row relation.Tuple) error {
	if q == nil || (q.gov == nil && q.live == nil) {
		return nil
	}
	bytes := row.ApproxBytes()
	q.live.AddOut(1, bytes)
	if q.gov == nil {
		return nil
	}
	return q.gov.AccountAppend(1, bytes)
}

// fire records n as the node under evaluation (the locus a recovered
// panic reports) and triggers any injected fault at its named operator
// site, recording an instant trace event when one fires.
func (q *query) fire(n algebra.Node, site string) error {
	if q == nil {
		return nil
	}
	q.node = n
	err := q.faults.Fire(site, q.gov)
	if err != nil {
		q.col.Instant("fault", site, err.Error())
	}
	return err
}

// env carries the per-run governance state into every operator. A
// correlated subquery needs no outer context of its own: its predicate
// is compiled against the enclosing block's rows (compilePred).
type env struct {
	q *query
}

func newEnv(q *query) *env { return &env{q: q} }

// eval dispatches one plan node, wrapping it in a stats-tree node when
// a collector is attached. The nil-collector path adds a single branch
// over the seed executor, so disabled observability stays free.
func (e *Executor) eval(n algebra.Node, ev *env) (*relation.Relation, error) {
	if ev.q.col == nil {
		return e.evalNode(n, ev)
	}
	return e.observe(n, ev, func() (*relation.Relation, error) { return e.evalNode(n, ev) })
}

// observe runs one operator's evaluation under its stats-tree node
// (none without a collector).
func (e *Executor) observe(n algebra.Node, ev *env, run func() (*relation.Relation, error)) (*relation.Relation, error) {
	if ev.q.col == nil {
		return run()
	}
	label, extras := algebra.Describe(n)
	op := ev.q.col.Enter(label, extras...)
	out, err := run()
	var rows, bytes int64
	if out != nil {
		rows = int64(out.Len())
		if rows > 0 {
			// Approximate: first-row footprint × cardinality, so the hook
			// stays O(1) per operator instead of O(rows).
			bytes = out.Rows[0].ApproxBytes() * rows
		}
	}
	ev.q.col.Exit(op, rows, bytes, err)
	return out, err
}

func (e *Executor) evalNode(n algebra.Node, ev *env) (*relation.Relation, error) {
	ev.q.node = n // best-effort locus for panic reports
	switch node := n.(type) {
	case *algebra.Scan:
		return e.evalScan(node, ev)
	case *algebra.Raw:
		return node.Rel, nil
	case *algebra.Alias:
		in, err := e.eval(node.Input, ev)
		if err != nil {
			return nil, err
		}
		return in.Rename(node.Name), nil
	case *algebra.Number:
		in, err := e.eval(node.Input, ev)
		if err != nil {
			return nil, err
		}
		if err := ev.q.fire(node, "exec.number"); err != nil {
			return nil, err
		}
		out := relation.New(algebra.NumberSchema(in.Schema, node.As))
		// Row numbering is ordinal by definition, so the loop stays
		// serial: rows are numbered in arrival order.
		for i, row := range in.Rows {
			if err := ev.q.tick(); err != nil {
				return nil, err
			}
			numbered := append(row.Clone(), value.Int(int64(i)))
			if err := ev.q.account(numbered); err != nil {
				return nil, err
			}
			out.Append(numbered)
		}
		ev.q.recordWorkers(1)
		return out, nil
	case *algebra.Restrict, *algebra.Project, *algebra.Distinct:
		return e.evalChain(node, ev)
	case *algebra.Join:
		return e.evalJoin(node, ev)
	case *algebra.GroupBy:
		return e.evalGroupBy(node, ev)
	case *algebra.GMDJ:
		return e.evalGMDJ(node, ev, nil)
	case *algebra.Sort:
		return e.evalSort(node, ev)
	case *algebra.SetOp:
		return e.evalSetOp(node, ev)
	default:
		return nil, fmt.Errorf("exec: unsupported plan node %T", n)
	}
}

// evalScan returns the base table under its alias. Scan output shares
// the stored rows (renaming is metadata-only), so nothing is charged
// against the materialization budgets here.
func (e *Executor) evalScan(s *algebra.Scan, ev *env) (*relation.Relation, error) {
	_, rel, err := e.scanTable(s, ev)
	if err != nil {
		return nil, err
	}
	e.chargeScan(rel.Len(), ev)
	return rel, nil
}

// scanTable resolves a Scan to its table and the table's rows under
// the scan's alias.
func (e *Executor) scanTable(s *algebra.Scan, ev *env) (*storage.Table, *relation.Relation, error) {
	if err := ev.q.fire(s, "exec.scan"); err != nil {
		return nil, nil, err
	}
	t, err := e.Cat.Table(s.Table)
	if err != nil {
		return nil, nil, err
	}
	// A quarantined table (its durable segment failed verification at
	// recovery) refuses queries with the typed corruption error instead
	// of serving rows that never matched the committed bytes.
	if err := t.CheckQuarantine(); err != nil {
		return nil, nil, err
	}
	return t, t.Rel.Rename(s.EffectiveAlias()), nil
}

// chargeScan counts the rows a scan hands on: the table's, less the
// blocks zone maps skipped (pruneScanInput).
func (e *Executor) chargeScan(rows int, ev *env) {
	e.rowsScanned.Add(int64(rows))
	ev.q.live.AddScanned(int64(rows))
}

func (e *Executor) evalGroupBy(g *algebra.GroupBy, ev *env) (*relation.Relation, error) {
	in, err := e.eval(g.Input, ev)
	if err != nil {
		return nil, err
	}
	if err := ev.q.fire(g, "exec.groupby"); err != nil {
		return nil, err
	}
	outSchema, err := algebra.GroupBySchema(in.Schema, g.Keys, g.Aggs)
	if err != nil {
		return nil, err
	}
	keyPos := make([]int, len(g.Keys))
	for i, k := range g.Keys {
		keyPos[i], _ = in.Schema.Find(k.Qualifier, k.Name) // resolved by GroupBySchema
	}
	specs := make([]agg.Spec, len(g.Aggs))
	for i, s := range g.Aggs {
		b, err := s.Bind(in.Schema)
		if err != nil {
			return nil, err
		}
		specs[i] = b
	}
	// Each group is a position in one growing fold state, in order of
	// first arrival; grouped aggregation folds in arrival order — a
	// serial consumer.
	fold, groups, keys := agg.New(specs, 0), map[string]int{}, []relation.Tuple(nil)
	for _, row := range in.Rows {
		if err := ev.q.tick(); err != nil {
			return nil, err
		}
		key := make(relation.Tuple, len(keyPos))
		for i, pos := range keyPos {
			key[i] = row[pos]
		}
		ks := key.Key()
		gi, ok := groups[ks]
		if !ok {
			gi = fold.Grow()
			groups[ks], keys = gi, append(keys, key)
		}
		for j := range specs {
			if err := fold.Add(j, gi, row); err != nil {
				return nil, err
			}
		}
	}
	// Global aggregation over an empty input still yields one row.
	if len(g.Keys) == 0 && len(keys) == 0 {
		fold.Grow()
		keys = append(keys, relation.Tuple{})
	}
	out := relation.New(outSchema)
	for gi, key := range keys {
		row := make(relation.Tuple, 0, outSchema.Len())
		row = append(row, key...)
		for j := range specs {
			row = append(row, fold.Result(j, gi))
		}
		if err := ev.q.account(row); err != nil {
			return nil, err
		}
		out.Append(row)
	}
	ev.q.recordWorkers(1)
	return out, nil
}

// evalGMDJ evaluates a GMDJ node. fuse, when non-nil, compiles the σ/π
// chain above it (evalChain) against the GMDJ's wide columns, for emit to
// run.
func (e *Executor) evalGMDJ(g *algebra.GMDJ, ev *env, fuse func(wide *relation.Schema) (*gmdj.Emit, error)) (*relation.Relation, error) {
	base, err := e.eval(g.Base, ev)
	if err != nil {
		return nil, err
	}
	detail, conds, table, err := e.gmdjDetail(g, ev)
	if err != nil {
		return nil, err
	}
	var emit *gmdj.Emit
	if fuse != nil {
		wide, err := algebra.GMDJSchema(base.Schema, g.Conds)
		if err == nil {
			emit, err = fuse(wide)
		}
		if err != nil {
			return nil, err
		}
	}
	ev.q.node = g
	// Collect this operator's counters separately so the stats tree can
	// attribute them to this GMDJ node, then fold them into the
	// executor's totals.
	var local gmdj.Stats
	opts := gmdj.Options{
		Completion: g.Completion,
		Workers:    e.Parallelism,
		Stats:      &local,
		Gov:        ev.q.gov,
		Faults:     ev.q.faults,
		Tracer:     ev.q.col.Tracer(),
		Live:       ev.q.live,
		Mem:        ev.q.tracker("gmdj"),
		Spill:      e.Spill,
		Emit:       emit,
	}
	// A table's typed columns are sound only for a relation that IS the
	// table, row for row: a bare scan (gmdjDetail); any operator in
	// between, or a skipped block, makes it a relation of this query's own.
	if table != nil {
		opts.Columns = func(col int) *relation.ColVec { return table.Column(col, detail.Rows) }
	}
	if s, ok := g.Base.(*algebra.Scan); ok {
		if t, err := e.Cat.Table(s.Table); err == nil {
			opts.BaseColumns = func(col int) *relation.ColVec { return t.Column(col, base.Rows) }
		}
	}
	out, err := gmdj.Evaluate(base, detail, conds, opts)
	e.gmdjMu.Lock()
	e.gmdjTotals.Merge(&local)
	e.gmdjTotals.WorkerRows = nil
	e.gmdjMu.Unlock()
	if op := ev.q.col.Current(); op != nil {
		// Fold tasks — ranges, key partitions, a spilled run's partitions
		// folded together — and 1 for a single-range fold (or a spilled
		// run of one-partition rounds); the detail pass's degree is its
		// own counter. Add drops a zero counter.
		op.Add("workers", max(int64(len(local.WorkerRows)), 1))
		if local.DetailPassWorkers > 1 {
			op.Add("detail_pass_workers", local.DetailPassWorkers)
		}
		// One scan is the paper's guarantee and goes unsaid; more — one
		// per fold range, per spilled partition — multiply the detail
		// counters below: detail_rows + short_circuit_rows is
		// detail_scans × |detail|.
		if local.DetailScans > 1 {
			op.Add("detail_scans", local.DetailScans)
		}
		op.Add("detail_rows", local.DetailRows)
		op.Add("probes", local.Probes)
		op.Add("matches", local.Matches)
		op.Add("completed", local.Completed)
		op.Add("short_circuit_rows", local.ShortCircuitRows)
		op.Add("fallback_conds", int64(local.FallbackConds))
		op.Add("packed_hash_conds", local.PackedHashConds)
		op.Add("slot_conds", local.SlotConds)
		op.Add("spill_partitions", local.SpillPartitions)
		op.Add("spill_bytes_written", local.SpillBytesWritten)
		op.Add("spill_bytes_read", local.SpillBytesRead)
		op.Add("extra_detail_scans", local.ExtraDetailScans)
		for w, rows := range local.WorkerRows {
			op.Add(fmt.Sprintf("worker%d_rows", w), rows)
		}
	}
	return out, err
}

// gmdjDetail evaluates a GMDJ's detail and returns the conditions to
// fold it under. table is the base table the returned relation is, row
// for row; nil for a derived detail.
func (e *Executor) gmdjDetail(g *algebra.GMDJ, ev *env) (detail *relation.Relation, conds []algebra.GMDJCond, table *storage.Table, err error) {
	switch d := g.Detail.(type) {
	case *algebra.Scan:
		if detail, err = e.eval(d, ev); err == nil {
			table, err = e.Cat.Table(d.Table)
		}
		return detail, g.Conds, table, err
	case *algebra.Restrict:
		if s, ok := d.Input.(*algebra.Scan); ok {
			if c, cerr := algebra.PredExpr(d.Where); cerr == nil {
				return e.fusedDetail(g, d, s, c, ev)
			}
		}
	}
	detail, err = e.eval(g.Detail, ev)
	return detail, g.Conds, nil, err
}

// fusedDetail evaluates a detail σ[c](Scan t) — what selection
// push-down makes of a θ whose conjuncts c read t alone
// (rewrite.PushSelections) — without building the filtered relation:
// t's blocks are zone-pruned by c, the rows of the surviving blocks are
// handed on as they are, and c is conjoined back onto every θ, so the
// detail pass evaluates it once per row as it did before c moved. The
// selection's stats node reports the rows handed on. A detail that lost
// a block is no longer the table's rows, hence no table.
func (e *Executor) fusedDetail(g *algebra.GMDJ, r *algebra.Restrict, s *algebra.Scan, c expr.Expr, ev *env) (detail *relation.Relation, conds []algebra.GMDJCond, table *storage.Table, err error) {
	detail, err = e.observe(r, ev, func() (*relation.Relation, error) {
		if err := ev.q.fire(r, "exec.restrict"); err != nil {
			return nil, err
		}
		ev.q.col.Current().Add("fused", 1)
		var in *relation.Relation
		in, table, err = e.pruneScanInput(s, r.Where, ev)
		return in, err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	// θ's own conjuncts first, as before c left it; the evaluator compiles
	// the conjunct list, so the nesting costs nothing.
	conds = make([]algebra.GMDJCond, len(g.Conds))
	for i, cond := range g.Conds {
		conds[i] = algebra.GMDJCond{Theta: expr.NewAnd(cond.Theta, c), Aggs: cond.Aggs}
	}
	return detail, conds, table, nil
}
