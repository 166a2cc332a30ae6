package engine

import (
	"context"
	"runtime/pprof"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/obs/profile"
	"github.com/olaplab/gmdj/internal/relation"
)

// Sink consumes a query's result as a stream of columnar batches in
// result order. Run calls Open exactly once (before any Push) with the
// result schema, then Push zero or more times with non-empty batches.
// The batch passed to Push is reused after the call returns: a sink
// that retains rows beyond the call must copy them out (tuple
// references are enough — result tuples are immutable once emitted;
// Batch.AppendTo does exactly this).
type Sink interface {
	Open(schema *relation.Schema) error
	Push(b *relation.Batch) error
}

// RelationSink materializes the batch stream back into a Relation —
// the adapter every row-oriented caller (Run, QueryRows) sits on.
type RelationSink struct {
	Rel *relation.Relation
}

// Open creates the output relation.
func (s *RelationSink) Open(schema *relation.Schema) error {
	s.Rel = relation.New(schema)
	return nil
}

// Push appends the batch's rows by reference.
func (s *RelationSink) Push(b *relation.Batch) error {
	b.AppendTo(s.Rel)
	return nil
}

// PhysicalPlan is a strategy-rewritten plan bound to its engine: the
// single execution contract every entry point (Run, RunContext,
// RunObserved, ExplainAnalyze, prepared statements, QueryRows) funnels
// through. All cross-cutting wiring — per-operator stats collection,
// tracer spans, the observer's live registry and slow-query log,
// pprof tenant labels, cost-estimate annotation, budget/memory
// governance — lives in its Run method, in one place, rather than
// being repeated per strategy or per entry point.
type PhysicalPlan struct {
	eng      *Engine
	root     algebra.Node
	strategy Strategy
	// text is the query's source SQL ("" for hand-built plans); it
	// labels the live registry and the slow-query log.
	text string
	// collect forces per-operator stats collection even without a
	// tracer or observer attached (the EXPLAIN ANALYZE path).
	collect bool
	// stats is the root of the per-operator stats tree from the last
	// Run, when collection was on.
	stats *obs.Op
}

// Physical rewrites a logical plan under the strategy and binds it to
// the engine as a runnable PhysicalPlan.
func (e *Engine) Physical(plan algebra.Node, s Strategy) (*PhysicalPlan, error) {
	p, err := e.Plan(plan, s)
	if err != nil {
		return nil, err
	}
	return &PhysicalPlan{eng: e, root: p, strategy: s}, nil
}

// PhysicalFromPlanned wraps an already-rewritten plan (a plan-cache
// hit or a bound prepared statement) without re-running the strategy
// rewrite. The strategy only labels the run for the observer and
// metrics.
func (e *Engine) PhysicalFromPlanned(phys algebra.Node, s Strategy) *PhysicalPlan {
	return &PhysicalPlan{eng: e, root: phys, strategy: s}
}

// SetText attaches the query's source SQL for the observer surfaces.
func (p *PhysicalPlan) SetText(text string) { p.text = text }

// CollectStats forces per-operator statistics collection on the next
// Run even when no tracer or observer is attached.
func (p *PhysicalPlan) CollectStats() { p.collect = true }

// Stats returns the per-operator stats tree from the last Run, or nil
// when collection was off.
func (p *PhysicalPlan) Stats() *obs.Op { return p.stats }

// Strategy reports the strategy the plan was rewritten under.
func (p *PhysicalPlan) Strategy() Strategy { return p.strategy }

// Root returns the physical operator tree.
func (p *PhysicalPlan) Root() algebra.Node { return p.root }

// Run executes the plan under the caller's context and the engine
// budget, delivering the result to the sink in relation.DefaultBatchCap
// chunks. Cancellation and budget violations abort evaluation
// cooperatively and surface as the govern package's typed errors;
// operator panics are recovered and returned as *govern.InternalError.
// Every observability surface is wired here: the per-operator stats
// collector (forced by CollectStats, or wanted by an attached tracer
// or observer), the observer's live in-flight registry, cost-model
// estimate annotation (the est= drift column), the workload
// histograms, and the slow-query log. With none of those attached the
// collector stays nil and each executor hook is one nil check.
func (p *PhysicalPlan) Run(ctx context.Context, sink Sink) error {
	e := p.eng
	var col *obs.Collector
	if p.collect || e.tracer != nil || e.observer != nil {
		col = obs.NewCollector(e.tracer)
	}
	live := e.observer.QueryStart(ctx, p.text, p.strategy.String())
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
		pprof.Do(ctx, profile.QueryLabels(tenant, rid, p.strategy.String(), "execute"), func(lctx context.Context) {
			rel, err = e.execute(lctx, p.root, col, live)
		})
	} else {
		rel, err = e.execute(ctx, p.root, col, live)
	}
	elapsed := time.Since(start)
	e.finishQuery(p.strategy, err)
	root := col.Root()
	if root != nil {
		root.RequestID = obs.ContextRequestID(ctx)
	}
	e.annotateEstimates(p.root, root)
	p.stats = root
	var rows int64
	if rel != nil {
		rows = int64(rel.Len())
	}
	outcome, errText := "ok", ""
	if err != nil {
		outcome, errText = errKinds[errKind(err)].kind, err.Error()
	}
	e.observer.QueryEnd(live, elapsed, rows, root, outcome, errText)
	if err != nil {
		return err
	}
	return p.drain(rel, sink)
}

// drain streams a materialized result into the sink batch by batch,
// reusing one Batch worth of scratch for the whole relation.
func (p *PhysicalPlan) drain(rel *relation.Relation, sink Sink) error {
	if err := sink.Open(rel.Schema); err != nil {
		return err
	}
	if rel.Len() == 0 {
		return nil
	}
	b := relation.NewBatch(rel.Schema, relation.DefaultBatchCap)
	for _, row := range rel.Rows {
		b.AppendRef(row)
		if b.Full() {
			if err := sink.Push(b); err != nil {
				return err
			}
			b.Reset()
		}
	}
	if b.Len() > 0 {
		return sink.Push(b)
	}
	return nil
}
