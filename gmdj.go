// Package gmdj is an embeddable in-memory OLAP query engine whose
// subquery processor implements Akinde & Böhlen, "Efficient Computation
// of Subqueries in Complex OLAP" (ICDE 2003): nested query expressions
// are translated into an algebra extended with the GMDJ
// (generalized multi-dimensional join) operator and evaluated in a
// bounded number of scans of the detail relations, with the paper's
// coalescing and tuple-completion optimizations applied on top.
//
// The package is a thin, stable facade over the engine internals:
//
//	db := gmdj.Open()
//	db.MustCreateTable("flows",
//		gmdj.Col("src", gmdj.String), gmdj.Col("bytes", gmdj.Int))
//	db.MustInsert("flows", []any{"10.0.0.1", int64(1200)})
//	res, err := db.Query(`SELECT src FROM flows WHERE bytes > 1000`)
//
// Queries accept the subquery constructs the paper studies — EXISTS,
// NOT EXISTS, IN, NOT IN, comparison against scalar and aggregate
// subqueries, and quantified ANY/SOME/ALL — and can be executed under
// any of four strategies (see Strategy) for comparison.
package gmdj

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// Type is a column type.
type Type uint8

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit float column.
	Float
	// String is a string column.
	String
	// Bool is a boolean column.
	Bool
)

func (t Type) kind() value.Kind {
	switch t {
	case Int:
		return value.KindInt
	case Float:
		return value.KindFloat
	case String:
		return value.KindString
	case Bool:
		return value.KindBool
	default:
		return value.KindNull
	}
}

// Column declares one table column.
type Column struct {
	Name string
	Type Type
}

// Col is shorthand for a Column literal.
func Col(name string, t Type) Column { return Column{Name: name, Type: t} }

// Strategy selects how subqueries are evaluated. The default for
// Query is GMDJOpt, the paper's optimized translation.
type Strategy = engine.Strategy

// Evaluation strategies.
const (
	// Native is tuple-iteration semantics with index acceleration.
	Native = engine.Native
	// Unnest is classical join/outer-join unnesting.
	Unnest = engine.Unnest
	// GMDJ is the basic SubqueryToGMDJ translation (Theorem 3.5).
	GMDJ = engine.GMDJ
	// GMDJOpt adds coalescing and tuple completion (§4).
	GMDJOpt = engine.GMDJOpt
	// Auto lets the built-in cost model pick among the other four.
	Auto = engine.Auto
)

// ParseStrategy inverts Strategy.String: it accepts exactly "native",
// "unnest", "gmdj", "gmdj-opt" and "auto".
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range append(engine.Strategies(), Auto) {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q", name)
}

// Budget bounds one query evaluation: wall-clock timeout, materialized
// rows, and approximate materialized bytes. The zero Budget is
// unlimited. Apply with WithBudget.
type Budget = engine.Budget

// Query-governance errors. A query aborted by its budget, its caller,
// or an internal fault returns an error matching exactly one of these
// with errors.Is; see the "Query governance & failure semantics"
// section of the README for the taxonomy.
var (
	// ErrCanceled: the caller canceled the query's context.
	ErrCanceled = govern.ErrCanceled
	// ErrTimeout: the query exceeded Budget.Timeout (or the caller
	// context's deadline).
	ErrTimeout = govern.ErrTimeout
	// ErrRowBudget: the query materialized more than Budget.MaxRows.
	ErrRowBudget = govern.ErrRowBudget
	// ErrMemBudget: the query exceeded Budget.MaxMemBytes.
	ErrMemBudget = govern.ErrMemBudget
	// ErrInternal: an operator panicked; the panic was recovered at the
	// engine boundary and the process survived.
	ErrInternal = govern.ErrInternal
)

// DB is a database: a catalog of tables plus the query engine, held in
// memory and, given a data directory (WithDataDir, SetDataDir or
// GMDJ_DATA_DIR), made durable there. A DB is not safe for concurrent
// mutation; concurrent read-only queries are safe.
type DB struct {
	cat *storage.Catalog
	eng *engine.Engine
}

// Open creates an empty database, configured by options. With no
// options the database has the parameterized plan cache enabled
// (16 MiB LRU; see WithPlanCache), secondary-index use on,
// morsel-driven parallelism at runtime.GOMAXPROCS(0) (see
// WithParallelism) and no budget.
//
// Configuration is resolved once, here: the built-in defaults, then
// the process environment, then the options in order, where a zero
// numeric option is not set. The environment contributes
// GMDJ_PARALLEL (execution degree), GMDJ_MEM
// ("limit=64MiB,spill=/tmp/x,admission=2s": memory limit, scratch
// root, admission timeout), GMDJ_DATA_DIR (a root under which each DB
// claims a private data directory, deleted on Close) and GMDJ_FAULTS
// (fault injection), read in one place (internal/engine's
// envDefaults). The plan cache, memory pool, scratch
// directory and durable store are then built once each; no setting
// changes afterwards. Three things attach to an open DB: SetDataDir
// (opening a directory can fail, and callers report what recovery
// found), EnableTracing and EnableObservability.
func Open(opts ...Option) *DB {
	return newDB(storage.NewCatalog(), opts)
}

// newDB is the shared constructor behind Open and the sample openers:
// engine.New folds the options over the defaults and builds the plan
// cache, pool, scratch store and durable store once each.
func newDB(cat *storage.Catalog, opts []Option) *DB {
	return &DB{cat: cat, eng: engine.New(cat, opts...)}
}

// CreateTable registers an empty table. Registering a name that
// already exists fails with an error matching ErrTableExists.
func (db *DB) CreateTable(name string, cols ...Column) error {
	rcols := make([]relation.Column, len(cols))
	for i, c := range cols {
		rcols[i] = relation.Column{Qualifier: name, Name: c.Name, Type: c.Type.kind()}
	}
	return db.createTable(name, rcols)
}

// createTable validates and registers an empty table, for CreateTable
// and SQL CREATE TABLE alike.
func (db *DB) createTable(name string, cols []relation.Column) error {
	if name == "" {
		return fmt.Errorf("gmdj: empty table name")
	}
	if _, err := db.cat.Table(name); err == nil {
		return fmt.Errorf("gmdj: %w: %q", ErrTableExists, name)
	}
	if len(cols) == 0 {
		return fmt.Errorf("gmdj: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for i, c := range cols {
		if c.Name == "" {
			return fmt.Errorf("gmdj: table %q column %d has no name", name, i)
		}
		if seen[c.Name] {
			return fmt.Errorf("gmdj: table %q has duplicate column %q", name, c.Name)
		}
		seen[c.Name] = true
	}
	db.cat.Register(storage.NewTable(name, relation.New(relation.NewSchema(cols...))))
	return nil
}

// MustCreateTable is CreateTable panicking on error (setup code).
func (db *DB) MustCreateTable(name string, cols ...Column) {
	if err := db.CreateTable(name, cols...); err != nil {
		panic(err)
	}
}

// Insert appends rows to a table. Row values may be int, int64,
// float64, string, bool, or nil (NULL); each row must match the table
// width and column types, or no row is inserted.
func (db *DB) Insert(table string, rows ...[]any) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	tups := make([]relation.Tuple, len(rows))
	for ri, row := range rows {
		tups[ri] = make(relation.Tuple, len(row))
		for i, v := range row {
			if tups[ri][i], err = toValue(v); err != nil {
				return fmt.Errorf("gmdj: row %d value %d: %w", ri+1, i+1, err)
			}
		}
	}
	return t.Append(tups)
}

// MustInsert is Insert panicking on error (setup code).
func (db *DB) MustInsert(table string, rows ...[]any) {
	if err := db.Insert(table, rows...); err != nil {
		panic(err)
	}
}

func toValue(v any) (value.Value, error) {
	switch x := v.(type) {
	case nil:
		return value.Null, nil
	case int:
		return value.Int(int64(x)), nil
	case int64:
		return value.Int(x), nil
	case float64:
		return value.Float(x), nil
	case string:
		return value.Str(x), nil
	case bool:
		return value.Bool(x), nil
	default:
		return value.Null, fmt.Errorf("unsupported Go value of type %T", v)
	}
}

func fromValue(v value.Value) any {
	switch v.Kind() {
	case value.KindNull:
		return nil
	case value.KindInt:
		return v.AsInt()
	case value.KindFloat:
		return v.AsFloat()
	case value.KindString:
		return v.AsString()
	case value.KindBool:
		return v.AsBool()
	default:
		return nil
	}
}

// BuildHashIndex creates an equality index on table.col (used by the
// Native strategy).
func (db *DB) BuildHashIndex(table, col string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return t.BuildHashIndex(col)
}

// BuildSortedIndex creates a range index on table.col.
func (db *DB) BuildSortedIndex(table, col string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return t.BuildSortedIndex(col)
}

// DropIndexes removes all secondary indexes from a table.
func (db *DB) DropIndexes(table string) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	t.DropIndexes()
	return nil
}

// Tables lists registered table names.
func (db *DB) Tables() []string { return db.cat.Names() }

// Result is a materialized query result.
type Result struct {
	// Columns are the output column names.
	Columns []string
	// Rows hold one []any per result row; cell types mirror Insert's.
	Rows [][]any
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.Rows) }

// Query parses and runs a SQL query under the GMDJOpt strategy.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryStrategy(query, GMDJOpt)
}

// QueryContext is Query honoring the caller's context: canceling ctx
// aborts the evaluation within a few hundred rows of any operator loop
// and returns an error matching ErrCanceled (or ErrTimeout when the
// context's deadline expired).
func (db *DB) QueryContext(ctx context.Context, query string) (*Result, error) {
	return db.QueryStrategyContext(ctx, query, GMDJOpt)
}

// QueryStrategy parses and runs a SQL query under an explicit
// strategy. All strategies return the same bag of rows; they differ
// only in evaluation cost.
func (db *DB) QueryStrategy(query string, s Strategy) (*Result, error) {
	return db.QueryStrategyContext(context.Background(), query, s)
}

// QueryStrategyContext is QueryStrategy honoring the caller's context.
// Like every entry point that takes SQL text it compiles through the
// plan cache (see compile), so a replay that differs only in its
// literals skips parsing, resolution, and strategy rewriting entirely.
func (db *DB) QueryStrategyContext(ctx context.Context, query string, s Strategy) (*Result, error) {
	rel, _, err := db.run(ctx, query, s, false)
	return toResult(rel), err
}

// compiled is a statement ready to bind: the shared plan template,
// the literals Normalize lifted out of the text (to bind back, in
// ordinal order), whether the text carries placeholders of its own
// (then the arguments come from a Stmt), and whether the plan cache
// served the template.
type compiled struct {
	ent      *plancache.Entry
	args     []value.Value
	explicit bool
	hit      bool
}

// compile is the one place SQL text becomes a physical plan template,
// behind Query*, QueryRows*, Exec* on a SELECT, Prepare, Explain,
// ExplainAnalyze* and QueryAnalyze*: normalize, look the template up
// under the current schema epoch, and on a miss parse, resolve,
// strategy-rewrite and cache it. With tracing on it records the
// statement's "plan" span, labelled with the cache outcome.
func (db *DB) compile(ctx context.Context, text string, s Strategy) (c compiled, err error) {
	if t := db.eng.Tracer(); t != nil {
		start := time.Now()
		defer func() {
			arg := "cache=miss"
			if c.hit {
				arg = "cache=hit"
			}
			if rid := obs.ContextRequestID(ctx); rid != "" {
				arg = "rid=" + rid + " " + arg
			}
			t.SpanArgs("plan", "plan "+s.String(), 1, start, time.Since(start), arg)
		}()
	}
	norm, args, explicit, err := sql.Normalize(text)
	if err != nil {
		return c, err
	}
	c = compiled{args: args, explicit: explicit}
	pc := db.eng.PlanCache()
	key := plancache.Key{Text: norm, Strategy: uint8(s)}
	epoch := db.cat.SchemaEpoch()
	if pc != nil {
		if c.ent, c.hit = pc.Get(key, epoch); c.hit {
			return c, nil
		}
	}
	build := func(text string) (*plancache.Entry, error) {
		plan, err := sql.ParseAndResolve(text, db.eng)
		if err != nil {
			return nil, err
		}
		phys, err := db.eng.Plan(plan, s)
		if err != nil {
			return nil, err
		}
		return &plancache.Entry{Plan: phys, NParams: algebra.ParamCount(phys), Tables: algebra.Tables(phys), SchemaEpoch: epoch}, nil
	}
	c.ent, err = build(norm)
	if err != nil || (!explicit && c.ent.NParams != len(args)) {
		// The text the caller wrote compiles instead, uncached and with
		// its literals inline: an error then carries positions in that
		// text, and a template the strategy rewrite dropped a lifted
		// literal from (it would not bind) is not used.
		c.args = nil
		c.ent, err = build(text)
		return c, err
	}
	if pc != nil {
		pc.Put(key, c.ent)
	}
	return c, nil
}

// bind instantiates the template: with the literals lifted from the
// text or, when the text has placeholders of its own, with args.
func (c compiled) bind(args []value.Value) (algebra.Node, error) {
	if !c.explicit {
		if len(args) > 0 {
			return nil, fmt.Errorf("gmdj: statement expects 0 parameter(s), got %d: %w", len(args), ErrBadParam)
		}
		args = c.args
	}
	return algebra.BindParams(c.ent.Plan, args)
}

// plan compiles a statement that must be complete as written into its
// executable physical plan.
func (db *DB) plan(ctx context.Context, query string, s Strategy) (algebra.Node, error) {
	c, err := db.compile(ctx, query, s)
	if err != nil {
		return nil, err
	}
	if c.explicit {
		return nil, fmt.Errorf("gmdj: query contains placeholders; use Prepare and pass arguments: %w", ErrBadParam)
	}
	return c.bind(nil)
}

// run compiles and executes a statement, with per-operator statistics
// (rendered EXPLAIN ANALYZE style) when analyze is set.
func (db *DB) run(ctx context.Context, query string, s Strategy, analyze bool) (*relation.Relation, string, error) {
	phys, err := db.plan(ctx, query, s)
	if err != nil {
		return nil, "", err
	}
	rel, root, err := db.eng.RunPlanned(ctx, query, phys, s, analyze)
	if err != nil || !analyze {
		return rel, "", err
	}
	return rel, engine.FormatAnalyzed(s, root), nil
}

// Explain returns the physical plan a strategy would execute for a
// query, as an indented operator tree. When the query's plan template
// was already resident in the plan cache, the output leads with a
// "plan: cached" line; either way it is resident afterwards.
func (db *DB) Explain(query string, s Strategy) (string, error) {
	c, err := db.compile(context.Background(), query, s)
	if err != nil {
		return "", err
	}
	phys := c.ent.Plan // a text with placeholders of its own is shown with them
	if !c.explicit {
		if phys, err = c.bind(nil); err != nil {
			return "", err
		}
	}
	out := engine.FormatPlan(s, phys)
	if c.hit {
		out = "plan: cached\n" + out
	}
	return out, nil
}

// ExplainAnalyze parses, runs, and renders the query's plan annotated
// with measured per-operator statistics: wall time, output rows,
// approximate bytes, and operator-specific counters (hash-index
// probes, fallback θ-scans, tuples retired by completion, per-worker
// partition rows). The query's rows are discarded; use QueryAnalyze to
// get both the result and the annotated plan from a single execution.
func (db *DB) ExplainAnalyze(query string, s Strategy) (string, error) {
	return db.ExplainAnalyzeContext(context.Background(), query, s)
}

// ExplainAnalyzeContext is ExplainAnalyze honoring the caller's
// context.
func (db *DB) ExplainAnalyzeContext(ctx context.Context, query string, s Strategy) (string, error) {
	_, out, err := db.run(ctx, query, s, true)
	return out, err
}

// QueryAnalyze runs a query once and returns both its result and the
// EXPLAIN ANALYZE rendering of that same execution.
func (db *DB) QueryAnalyze(query string, s Strategy) (*Result, string, error) {
	return db.QueryAnalyzeContext(context.Background(), query, s)
}

// QueryAnalyzeContext is QueryAnalyze honoring the caller's context.
func (db *DB) QueryAnalyzeContext(ctx context.Context, query string, s Strategy) (*Result, string, error) {
	rel, out, err := db.run(ctx, query, s, true)
	return toResult(rel), out, err
}

// EnableTracing attaches a ring-buffer span recorder to the engine:
// every subsequent query records operator open/close spans, GMDJ
// worker partitions, governance trips, and fault-injection fires.
// capacity bounds the number of retained events (oldest events are
// overwritten); capacity <= 0 selects a default of 65536. Not safe to
// call concurrently with running queries.
func (db *DB) EnableTracing(capacity int) {
	if capacity <= 0 {
		capacity = obs.DefaultTraceCapacity
	}
	db.eng.SetTracer(obs.NewTracer(capacity))
}

// WriteTrace dumps the recorded trace as Chrome trace_event JSON,
// loadable by Perfetto (https://ui.perfetto.dev) or chrome://tracing.
// Tracing must have been enabled with EnableTracing.
func (db *DB) WriteTrace(w io.Writer) error {
	t := db.eng.Tracer()
	if t == nil {
		return fmt.Errorf("gmdj: tracing not enabled (call EnableTracing first)")
	}
	return t.WriteJSON(w)
}

// Tracer returns the engine's span recorder (nil until EnableTracing).
// The serving layer records its request-scoped spans — tenant gate,
// execute, serialize — through it, so server and operator events land
// in one timeline. The returned value's concrete type is internal;
// embedders outside this module should treat it as opaque and use
// WriteTrace.
func (db *DB) Tracer() *obs.Tracer { return db.eng.Tracer() }

// Metrics returns a snapshot of this database's event counters by
// name (queries per strategy, rows scanned, governance trips, GMDJ
// work, cache, pool, spill and storage traffic). Counters are per DB:
// two databases in one process do not see each other's events. A
// counter that is still zero has no key. WritePromMetrics renders the
// same snapshot as gmdj_engine_events_total{event=...}.
func (db *DB) Metrics() map[string]int64 { return db.eng.Metrics() }

// ObsConfig configures workload-level observability
// (EnableObservability).
type ObsConfig struct {
	// SlowQueryThreshold admits a query into the slow-query log when
	// its wall time meets or exceeds it. 0 logs every query.
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds slow-log retention (a ring buffer; oldest
	// records are overwritten). <= 0 selects a default of 256.
	SlowLogCapacity int
}

// EnableObservability attaches a workload observer to the engine:
// every subsequent query is registered in a live in-flight registry
// while it runs (with advancing row/byte counters), sampled into
// per-strategy latency and row-count histograms and per-operator-kind
// histograms when it finishes, and recorded — SQL text, strategy,
// outcome, and the full EXPLAIN ANALYZE statistics tree — into the
// slow-query log when it crosses cfg.SlowQueryThreshold. Serve the
// surfaces over HTTP with ObsHTTPHandler, or read them directly with
// FormatSlowLog, WriteSlowLog, FormatHistograms, and
// FormatLiveQueries. Not safe to call concurrently with running
// queries.
func (db *DB) EnableObservability(cfg ObsConfig) {
	db.eng.SetObserver(obs.NewObserver(obs.ObserverConfig{
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		SlowLogCapacity:    cfg.SlowLogCapacity,
	}))
}

// ObsHTTPHandler returns the live observability dashboard: mount it at
// /debug/olap/ to serve /debug/olap/queries (in-flight queries with
// live row counters), /debug/olap/hist (latency and row-count
// histograms), and /debug/olap/slowlog — JSON by default, plain text
// with ?format=text. Before EnableObservability the handler answers
// 503.
func (db *DB) ObsHTTPHandler() http.Handler { return db.eng.Observer().Handler() }

// WriteSlowLog dumps the slow-query log as a JSON array (oldest
// first), each record carrying the query text, strategy, elapsed
// time, outcome, and per-operator statistics tree. Errors before
// EnableObservability.
func (db *DB) WriteSlowLog(w io.Writer) error {
	o := db.eng.Observer()
	if o == nil {
		return fmt.Errorf("gmdj: observability not enabled (call EnableObservability first)")
	}
	return o.SlowLog().WriteJSON(w)
}

// FormatSlowLog renders the slow-query log as text, newest first.
func (db *DB) FormatSlowLog() string { return db.eng.Observer().SlowLog().Format() }

// FormatHistograms renders the workload histograms — query latency
// and result rows per strategy, operator time and rows per operator
// kind — as one summary line each (count, mean, min/p50/p90/p99/max).
func (db *DB) FormatHistograms() string {
	return obs.FormatHistograms(db.eng.Observer().Histograms())
}

// FormatLiveQueries renders the currently in-flight queries with
// their live progress counters.
func (db *DB) FormatLiveQueries() string { return db.eng.Observer().FormatInFlight() }

// LiveQueries snapshots the in-flight query registry (empty without
// EnableObservability). The serving layer sums each query's tracked
// bytes by tenant into the olap_tenant_heap_inuse_bytes gauge.
func (db *DB) LiveQueries() []obs.LiveSnapshot { return db.eng.Observer().InFlight() }

// toResult converts a result relation (nil from a failed run stays nil).
func toResult(rel *relation.Relation) *Result {
	if rel == nil {
		return nil
	}
	res := &Result{Columns: make([]string, rel.Schema.Len())}
	for i, c := range rel.Schema.Columns {
		res.Columns[i] = c.Name
	}
	res.Rows = make([][]any, rel.Len())
	for i, row := range rel.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			out[j] = fromValue(v)
		}
		res.Rows[i] = out
	}
	return res
}

// LoadCSV bulk-loads CSV (header row of column names, \N for NULL)
// into an existing table; the header must match the table's columns.
func (db *DB) LoadCSV(table string, r io.Reader) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	rel, err := storage.ReadCSV(r, t.Rel.Schema)
	if err != nil {
		return err
	}
	return t.Append(rel.Rows)
}

// DumpCSV writes a table as CSV.
func (db *DB) DumpCSV(table string, w io.Writer) error {
	t, err := db.cat.Table(table)
	if err != nil {
		return err
	}
	return storage.WriteCSV(w, t.Rel)
}
