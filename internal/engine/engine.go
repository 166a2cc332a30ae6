// Package engine is the query-engine facade: it owns a catalog, plans
// nested-algebra queries under a chosen evaluation strategy, executes
// them, and explains the resulting physical plans. The four strategies
// are the paper's experimental contenders:
//
//	Native   — tuple-iteration semantics with vendor-style refinements
//	           (index lookups, first-match EXISTS, smart-nested-loop ALL)
//	Unnest   — classical join/outer-join unnesting
//	GMDJ     — Algorithm SubqueryToGMDJ, basic (Theorem 3.5)
//	GMDJOpt  — GMDJ plus coalescing and tuple completion (§4)
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/obs/profile"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/rewrite"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/unnest"
)

// Strategy selects how subqueries are evaluated.
type Strategy uint8

const (
	// Native evaluates subquery predicates with tuple-iteration
	// semantics (plus index acceleration when available).
	Native Strategy = iota
	// Unnest rewrites subqueries into joins/outer-joins first.
	Unnest
	// GMDJ rewrites subqueries into GMDJ expressions (basic algorithm).
	GMDJ
	// GMDJOpt additionally applies coalescing and tuple completion.
	GMDJOpt
	// Auto prices the four rewritings with the built-in cost model and
	// runs the cheapest — the cost-based integration the paper's
	// conclusion sketches.
	Auto
)

// String names the strategy as used in benchmark output.
func (s Strategy) String() string {
	switch s {
	case Native:
		return "native"
	case Unnest:
		return "unnest"
	case GMDJ:
		return "gmdj"
	case GMDJOpt:
		return "gmdj-opt"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy { return []Strategy{Native, Unnest, GMDJ, GMDJOpt} }

// Engine executes queries against a catalog.
type Engine struct {
	cat  *storage.Catalog
	exec *exec.Executor
	// cfg is the configuration New resolved; nothing changes it later.
	cfg Config
	// tracer, when non-nil, receives span and instant events for every
	// query run through this engine; see SetTracer.
	tracer *obs.Tracer
	// observer, when non-nil, receives workload-level signals for every
	// query: live in-flight registration, latency/row histograms, and
	// slow-query log records; see SetObserver.
	observer *obs.Observer
	// plans, when non-nil, is the parameterized plan cache consulted by
	// API layers above the engine; the engine itself only hosts it so
	// one cache serves every entry point over this catalog.
	plans *plancache.Cache
	// pool is the engine-wide byte pool queries draw reservations from;
	// spillStore holds the GMDJ base partitions spilled under it. Both
	// nil without a memory limit (see memory.go).
	pool       *mem.Pool
	spillStore *spill.Store
	// store is the durable columnar tier (nil when persistence is off);
	// recovery is the report from opening it, dataDirOwned marks an
	// env-derived directory the engine removes when it lets go of it,
	// and lastCkptEpoch is the catalog write epoch as of the last
	// successful checkpoint (-1 = never), driving transparent
	// checkpointing in maybeCheckpoint.
	store         *storage.DiskStore
	recovery      *storage.RecoveryReport
	dataDirOwned  bool
	lastCkptEpoch atomic.Int64
	counters      counters // the events the engine itself owns; see Metrics
}

// Budget bounds one query evaluation: wall clock, materialized rows,
// and approximate materialized bytes. The zero Budget is unlimited.
type Budget struct {
	// Timeout is the wall-clock budget (0 = none). Exceeding it aborts
	// the query with govern.ErrTimeout.
	Timeout time.Duration
	// MaxRows caps rows materialized across all intermediate and final
	// relations (0 = unlimited); violation is govern.ErrRowBudget.
	MaxRows int64
	// MaxMemBytes caps approximate materialized bytes (0 = unlimited);
	// violation is govern.ErrMemBudget.
	MaxMemBytes int64
}

// Config is every execution setting of an Engine. New resolves it
// once — built-in defaults, then the GMDJ_* environment, then the
// options in order — and nothing changes it afterwards.
type Config struct {
	// Parallelism is the morsel-driven execution degree: how many
	// workers each parallel operator pipeline (scan morsels through
	// filters and projections, hash-join build/probe, GMDJ detail
	// scans) may use; below 2 runs serial. Default
	// runtime.GOMAXPROCS(0), or GMDJ_PARALLEL. The executor receives it
	// clamped by the memory accountant (mem.ClampParallelism): per-worker
	// pipeline scratch must fit MemoryLimit.
	Parallelism int
	// Budget bounds every query run through the engine.
	Budget Budget
	// UseIndexes lets the native strategy use secondary indexes (default
	// true; the "unindexed" benchmark variants turn it off). GMDJ plans
	// are unaffected.
	UseIndexes bool
	// MemoizeSubqueries turns on Rao-Ross invariant reuse in the native
	// strategy: subquery outcomes are cached per distinct correlation
	// binding.
	MemoizeSubqueries bool
	// PlanCacheBytes sizes the parameterized plan cache: 0 (the
	// default) takes the cache's default size, a negative value builds
	// no cache.
	PlanCacheBytes int64
	// MemoryLimit sizes the engine-wide pool bounding tracked operator
	// state across all concurrent queries (<= 0: no pool, the default);
	// GMDJ_MEM's limit= supplies a default.
	MemoryLimit int64
	// AdmissionTimeout bounds how long a query waits for pool memory
	// before being shed with mem.ErrAdmissionTimeout (<= 0:
	// mem.DefaultAdmissionTimeout); GMDJ_MEM's admission= supplies a
	// default.
	AdmissionTimeout time.Duration
	// SpillDir is the scratch root a per-engine spill directory is
	// created under (default spill.DefaultRoot(), or GMDJ_MEM's spill=).
	// The empty string disables spilling: memory exhaustion then kills
	// the query instead of degrading it.
	SpillDir string
	// DataDir enables durable storage rooted there ("" = in memory). By
	// default GMDJ_DATA_DIR supplies a fresh per-engine subdirectory of
	// its root, removed again on Close. New panics when an explicitly
	// configured directory cannot be opened; SetDataDir returns that
	// error instead.
	DataDir string
	// Faults injects deterministic failures at named sites, disk sites
	// of the scratch and durable stores included (default GMDJ_FAULTS).
	Faults *govern.Injector
}

// Option sets Config fields at construction.
type Option func(*Config)

// New creates an engine over a catalog in four steps: Config from the
// defaults and the GMDJ_* environment (envDefaults); the options, in
// order; the durable store, the pool, the scratch store and the plan cache,
// once each; the degree clamp on the executor.
func New(cat *storage.Catalog, opts ...Option) *Engine {
	c, envDataDir := envDefaults()
	for _, opt := range opts {
		opt(&c)
	}
	e := &Engine{cat: cat, exec: exec.New(cat), cfg: c}
	e.exec.UseIndexes, e.exec.MemoizeSubqueries, e.exec.Faults = c.UseIndexes, c.MemoizeSubqueries, c.Faults
	// The data dir opens first: an explicit one that cannot be opened
	// panics before any pool or scratch directory exists.
	e.openDataDir(c.DataDir, envDataDir)
	e.buildMemory()
	if c.PlanCacheBytes >= 0 {
		e.plans = plancache.New(c.PlanCacheBytes)
	}
	e.exec.Parallelism = mem.ClampParallelism(c.MemoryLimit, c.Parallelism)
	return e
}

// Config returns the configuration New resolved.
func (e *Engine) Config() Config { return e.cfg }

// EnvParallel is the environment variable overriding the default
// morsel-driven execution degree for a whole process, e.g.
// GMDJ_PARALLEL=4 (1 = serial). An option overrides it; malformed or
// non-positive values are ignored.
const EnvParallel = "GMDJ_PARALLEL"

// envDefaults is the built-in default Config overlaid with
// GMDJ_PARALLEL, GMDJ_MEM, GMDJ_FAULTS and GMDJ_DATA_DIR; envDataDir is
// the per-engine directory derived from GMDJ_DATA_DIR ("" when unset).
// It is the only place the library reads the environment (a CI lint
// keeps it so); the spec grammars stay with their owners. A malformed
// value is reported on stderr and ignored rather than failing engine
// construction.
func envDefaults() (c Config, envDataDir string) {
	ignore := func(name string, err error) {
		fmt.Fprintf(os.Stderr, "engine: ignoring %s: %v\n", name, err)
	}
	c = Config{Parallelism: runtime.GOMAXPROCS(0), UseIndexes: true, SpillDir: spill.DefaultRoot()}
	if s := strings.TrimSpace(os.Getenv(EnvParallel)); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			c.Parallelism = n
		} else {
			ignore(EnvParallel, fmt.Errorf("%q: want a positive integer", s))
		}
	}
	if spec := strings.TrimSpace(os.Getenv(mem.EnvMem)); spec != "" {
		if m, err := mem.ParseEnv(spec); err != nil {
			ignore(mem.EnvMem, err)
		} else {
			c.MemoryLimit, c.AdmissionTimeout = m.Limit, m.Admission
			if m.SpillDir != "" {
				c.SpillDir = m.SpillDir
			}
		}
	}
	var err error
	if c.Faults, err = govern.ParseFaults(os.Getenv(govern.EnvFaults)); err != nil {
		ignore(govern.EnvFaults, err)
	}
	if root := strings.TrimSpace(os.Getenv(EnvDataDir)); root != "" {
		envDataDir = filepath.Join(root, fmt.Sprintf("gmdj-data-%d-%d", os.Getpid(), dataSeq.Add(1)))
		c.DataDir = envDataDir
	}
	return c, envDataDir
}

// Catalog returns the underlying catalog.
func (e *Engine) Catalog() *storage.Catalog { return e.cat }

// PlanCache returns the engine's plan cache, or nil.
func (e *Engine) PlanCache() *plancache.Cache { return e.plans }

// TableSchema implements algebra.SchemaResolver.
func (e *Engine) TableSchema(name string) (*relation.Schema, error) {
	return e.exec.TableSchema(name)
}

// Plan rewrites a logical plan according to the strategy, returning
// the plan that will actually execute.
func (e *Engine) Plan(plan algebra.Node, s Strategy) (algebra.Node, error) {
	switch s {
	case Native:
		return plan, nil
	case Unnest:
		return unnest.Unnest(plan, e.exec)
	case GMDJ:
		return rewrite.SubqueryToGMDJ(plan, e.exec)
	case GMDJOpt:
		p, err := rewrite.SubqueryToGMDJOpts(plan, e.exec, rewrite.Options{AllCounterexample: true})
		if err != nil {
			return nil, err
		}
		opt, err := rewrite.Optimize(p, e.exec)
		if err == nil {
			// Each Proposition 4.1 merge turns two GMDJ nodes into one.
			e.counters.coalesced.Add(int64(gmdjNodes(p) - gmdjNodes(opt)))
		}
		return opt, err
	case Auto:
		p, _, err := e.PlanAuto(plan)
		return p, err
	default:
		return nil, fmt.Errorf("engine: unknown strategy %v", s)
	}
}

// PlanAuto prices the Native, Unnest, GMDJ, and GMDJOpt rewritings of
// the plan and returns the cheapest along with the strategy chosen.
// Rewritings that fail (e.g. Unnest on disjunctive subqueries) are
// simply not considered; Native always succeeds.
func (e *Engine) PlanAuto(plan algebra.Node) (algebra.Node, Strategy, error) {
	m := e.model()
	best, bestStrategy := plan, Native
	bestCost := math.Inf(1)
	for _, s := range Strategies() {
		p, err := e.Plan(plan, s)
		if err != nil {
			continue
		}
		if c := m.node(p).cost; c < bestCost {
			best, bestStrategy, bestCost = p, s, c
		}
	}
	if math.IsInf(bestCost, 1) {
		return plan, Native, nil
	}
	return best, bestStrategy, nil
}

// Run plans and executes with no caller context; the engine budget
// (Config.Budget) still applies.
func (e *Engine) Run(plan algebra.Node, s Strategy) (*relation.Relation, error) {
	return e.RunContext(context.Background(), plan, s)
}

// RunContext plans and executes under the caller's context and the
// engine budget. Cancellation and budget violations abort evaluation
// cooperatively (checks every few hundred rows in every operator loop,
// including parallel GMDJ workers) and surface as the govern package's
// typed errors: ErrCanceled, ErrTimeout, ErrRowBudget, ErrMemBudget.
// An operator panic is recovered at this boundary and returned as a
// *govern.InternalError wrapping govern.ErrInternal.
func (e *Engine) RunContext(ctx context.Context, plan algebra.Node, s Strategy) (*relation.Relation, error) {
	p, err := e.Plan(plan, s)
	if err != nil {
		return nil, err
	}
	rel, _, err := e.RunPlanned(ctx, "", p, s, false)
	return rel, err
}

// SetTracer attaches a span recorder: every subsequent query's
// operator spans, governance trips, and fault fires are recorded into
// t's ring buffer (see obs.Tracer.WriteJSON for export). nil disables
// tracing. Not safe to call concurrently with running queries.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// SetObserver attaches a workload observer: every subsequent query is
// registered in the live in-flight registry while it runs, sampled
// into the latency and row-count histograms when it finishes, and
// offered to the slow-query log. Attaching an observer also forces
// per-operator stats collection (the slow-query log stores the full
// EXPLAIN ANALYZE tree). nil disables workload observation. Not safe
// to call concurrently with running queries.
func (e *Engine) SetObserver(o *obs.Observer) {
	e.observer = o
	// The dashboard's /debug/olap/mem endpoint snapshots the engine's
	// memory posture on demand; the closure reads whatever pool and
	// store are current at request time.
	o.SetMemSource(func() any { return e.MemStatus() })
	// Likewise /debug/olap/trace streams whatever tracer is current —
	// a nil tracer exports a valid empty trace rather than 404ing, so
	// the endpoint's presence tracks observability, not tracing.
	o.SetTraceSource(func(w io.Writer) error { return e.tracer.WriteJSON(w) })
}

// Observer returns the attached observer (nil when workload
// observation is off).
func (e *Engine) Observer() *obs.Observer { return e.observer }

// Explain renders the physical plan chosen for a strategy as an
// indented operator tree.
func (e *Engine) Explain(plan algebra.Node, s Strategy) (string, error) {
	p, err := e.Plan(plan, s)
	if err != nil {
		return "", err
	}
	return FormatPlan(s, p), nil
}

// FormatPlan renders a physical plan in EXPLAIN form.
func FormatPlan(s Strategy, phys algebra.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s\n", s)
	explainNode(&b, phys, 0)
	return b.String()
}

// explainNode prints the static operator tree using the same labels
// the runtime stats tree carries (algebra.Describe), so EXPLAIN and
// EXPLAIN ANALYZE line up operator by operator.
func explainNode(b *strings.Builder, n algebra.Node, depth int) {
	indent := strings.Repeat("  ", depth)
	label, extras := algebra.Describe(n)
	fmt.Fprintf(b, "%s%s\n", indent, label)
	for _, x := range extras {
		fmt.Fprintf(b, "%s  %s\n", indent, x)
	}
	for _, ch := range n.Children() {
		explainNode(b, ch, depth+1)
	}
}

// ExplainAnalyze plans, executes, and renders the plan annotated with
// per-operator runtime statistics: actual wall time, output rows,
// approximate bytes, and operator-specific counters (hash-index
// probes, fallback θ-scans, tuples retired by completion, per-worker
// partition row counts). The query's result is discarded; use
// RunObserved to get both.
func (e *Engine) ExplainAnalyze(ctx context.Context, plan algebra.Node, s Strategy) (string, error) {
	_, root, err := e.RunObserved(ctx, plan, s)
	if err != nil {
		return "", err
	}
	return FormatAnalyzed(s, root), nil
}

// FormatAnalyzed renders a stats tree from RunObserved in EXPLAIN
// ANALYZE form.
func FormatAnalyzed(s Strategy, root *obs.Op) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %s (analyzed)\n", s)
	b.WriteString(obs.FormatTree(root))
	return b.String()
}

// RunObserved is RunContext with per-operator statistics collection:
// it returns the result relation together with the root of the stats
// tree mirroring the executed plan. Span events go to the engine
// tracer when one is set (SetTracer).
func (e *Engine) RunObserved(ctx context.Context, plan algebra.Node, s Strategy) (*relation.Relation, *obs.Op, error) {
	p, err := e.Plan(plan, s)
	if err != nil {
		return nil, nil, err
	}
	return e.RunPlanned(ctx, "", p, s, true)
}

// RunPlanned executes a plan that has already been through Plan (a
// bound plan-cache template, say; s then only labels the run) under
// the caller's context and the engine budget — the one funnel behind
// every entry point, here and in the root package, so all
// cross-cutting wiring lives here rather than per strategy or per
// entry point: the per-operator stats collector (forced by analyze,
// the EXPLAIN ANALYZE path, or wanted by an attached tracer or
// observer), the observer's live in-flight registry, pprof tenant
// labels, cost-model estimate annotation (the est= drift column), the
// workload histograms, and the slow-query log. With none of those
// attached the collector stays nil and each executor hook is one nil
// check. text is the query's source SQL ("" for hand-built plans), for
// the live registry and the slow-query log. The stats root is returned
// on failure too.
func (e *Engine) RunPlanned(ctx context.Context, text string, p algebra.Node, s Strategy, analyze bool) (*relation.Relation, *obs.Op, error) {
	var col *obs.Collector
	if analyze || e.tracer != nil || e.observer != nil {
		col = obs.NewCollector(e.tracer)
	}
	live := e.observer.QueryStart(ctx, text, s.String())
	start := time.Now()
	var rel *relation.Relation
	var err error
	// pprof labels attribute CPU samples to the query's tenant, request
	// ID, and strategy. Go propagates labels to child goroutines, so
	// morsel worker pools inherit them — profiles bill parallel scan
	// work to the tenant that scheduled it. Unattributed queries (no
	// request identity on the context) skip the label plumbing
	// entirely, keeping the benchmark hot path label-free.
	tenant, rid := obs.ContextTenant(ctx), obs.ContextRequestID(ctx)
	if tenant != "" || rid != "" {
		pprof.Do(ctx, profile.QueryLabels(tenant, rid, s.String(), "execute"), func(lctx context.Context) {
			rel, err = e.execute(lctx, p, col, live)
		})
	} else {
		rel, err = e.execute(ctx, p, col, live)
	}
	elapsed := time.Since(start)
	e.finishQuery(s, err)
	root := col.Root()
	if root != nil {
		root.RequestID = rid
	}
	e.annotateEstimates(p, root)
	var rows int64
	if rel != nil {
		rows = int64(rel.Len())
	}
	outcome, errText := "ok", ""
	if err != nil {
		outcome, errText = errTable[errRow(err)].name, err.Error()
	}
	e.observer.QueryEnd(live, elapsed, rows, root, outcome, errText)
	if err != nil {
		return nil, root, err
	}
	return rel, root, nil
}

// execute runs an already-rewritten physical plan under the engine
// budget, the caller's context, an optional collector, and an optional
// live-registry entry.
func (e *Engine) execute(ctx context.Context, p algebra.Node, col *obs.Collector, live *obs.LiveQuery) (*relation.Relation, error) {
	// Durable tier first: flush any writes since the last checkpoint so
	// the data this query reads is also the data a crash would recover.
	e.maybeCheckpoint()
	// Governor-free hot path: no budget, no pool, and an uncancelable
	// context need no governor, so benchmark hot loops skip even the
	// per-row atomic tick. govern.Uncancelable names the predicate and
	// carries the contract. Observability is independent of governance —
	// the collector and live counters flow on both paths.
	if e.cfg.Budget == (Budget{}) && govern.Uncancelable(ctx) && e.pool == nil {
		return e.exec.RunLive(p, nil, col, live)
	}
	if e.cfg.Budget.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Budget.Timeout)
		defer cancel()
	}
	gov := govern.New(ctx, govern.Budget{MaxRows: e.cfg.Budget.MaxRows, MaxMemBytes: e.cfg.Budget.MaxMemBytes})
	if e.pool != nil {
		// Admission control: block until the pool can seed this query's
		// reservation, shedding with mem.ErrAdmissionTimeout when the
		// deadline passes first. The reservation rides on the governor so
		// every operator can reach it without signature changes.
		res, err := e.pool.Acquire(ctx, mem.DefaultQueryReserve)
		if err != nil {
			return nil, govern.MapContextErr(err)
		}
		defer res.Release()
		gov.AttachReservation(res)
	}
	return e.exec.RunLive(p, gov, col, live)
}

// finishQuery counts the finished query and records governance trips
// into the trace.
func (e *Engine) finishQuery(s Strategy, err error) {
	if int(s) < len(e.counters.queries) {
		e.counters.queries[s].Add(1)
	}
	if err != nil {
		i := errRow(err)
		e.counters.errors[i].Add(1)
		e.tracer.Instant("govern", errTable[i].name, err.Error())
	}
}

// ErrorClass is how one query error is reported everywhere outside
// the process: the taxonomy kind, the exit code a CLI maps it to, the
// HTTP status it travels under, and whether a client retry can
// plausibly succeed.
type ErrorClass struct {
	Kind       string `json:"kind"`
	ExitCode   int    `json:"exit_code"`
	HTTPStatus int    `json:"http_status"`
	Retryable  bool   `json:"retryable"`
}

// errTable is the one error taxonomy, in match order: the errors.<name>
// counters, the observer's outcome label, Classify, the serving
// layer's wire kinds and statuses and the CLIs' exit codes all read
// it (DESIGN.md §11 carries a copy a test holds to this one). name is
// the counter and outcome name — the class's Kind in every row but the
// last, the default for parse errors, unknown tables and bad
// parameters, where the query and not the server is at fault: it
// counts as errors.other and travels as kind "query". Exit codes 11
// and 12 belong to the serving layer (unavailable) and olapd's
// shutdown leak check.
var errTable = [...]struct {
	is   error
	name string
	ErrorClass
}{
	// 499 is nginx's non-standard "client closed request": the client
	// went away before the response; no standard status fits better.
	{govern.ErrCanceled, "canceled", ErrorClass{"canceled", 4, 499, false}},
	{govern.ErrTimeout, "timeout", ErrorClass{"timeout", 3, http.StatusGatewayTimeout, false}},
	{govern.ErrRowBudget, "row_budget", ErrorClass{"row_budget", 5, http.StatusUnprocessableEntity, false}},
	// The kill regime: memory pressure killed the query. Load-dependent,
	// so a retry after backoff can succeed.
	{govern.ErrMemBudget, "mem_budget", ErrorClass{"mem_budget", 6, http.StatusServiceUnavailable, true}},
	{mem.ErrAdmissionTimeout, "admission_timeout", ErrorClass{"admission_timeout", 9, http.StatusTooManyRequests, true}},
	{mem.ErrPoolClosed, "closed", ErrorClass{"closed", 10, http.StatusServiceUnavailable, false}},
	// Quarantined durable state: unlike spill_io the bytes on disk are
	// wrong and stay wrong, so a retry cannot succeed.
	{storage.ErrSegmentCorrupt, "segment_corrupt", ErrorClass{"segment_corrupt", 13, http.StatusInternalServerError, false}},
	{spill.ErrSpillIO, "spill_io", ErrorClass{"spill_io", 8, http.StatusInternalServerError, true}},
	{govern.ErrInternal, "internal", ErrorClass{"internal", 7, http.StatusInternalServerError, false}},
	{nil, "other", ErrorClass{"query", 1, http.StatusBadRequest, false}},
}

// errRow maps a query error onto its index in errTable.
func errRow(err error) int {
	for i, r := range errTable[:len(errTable)-1] {
		if errors.Is(err, r.is) {
			return i
		}
	}
	return len(errTable) - 1
}

// Classify reports how a non-nil query error is classified.
func Classify(err error) ErrorClass { return errTable[errRow(err)].ErrorClass }

// ErrorClasses lists every class Classify can return, in match order.
func ErrorClasses() []ErrorClass {
	out := make([]ErrorClass, len(errTable))
	for i, r := range errTable {
		out[i] = r.ErrorClass
	}
	return out
}
