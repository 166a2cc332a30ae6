package govern

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/mem"
)

// Budget bounds one query evaluation. The zero Budget is unlimited.
type Budget struct {
	// MaxRows caps the total number of rows materialized by the query
	// across all intermediate and final relations. 0 = unlimited.
	MaxRows int64
	// MaxMemBytes caps the approximate bytes of materialized tuples
	// (relation.Tuple.ApproxBytes, accounted at append time).
	// 0 = unlimited.
	MaxMemBytes int64
}

// tickMask gates the full context check in Tick: the context is
// consulted once every tickMask+1 rows, so cancellation latency is
// bounded by the time to process 256 rows of the hottest loop.
const tickMask = 255

// Governor is the per-query governance state: a context carrying
// cancellation and the wall-clock deadline, plus atomic row/byte
// accounting against the budget. A single Governor is shared by every
// operator of one query, including parallel GMDJ workers; all methods
// are safe for concurrent use. All methods are nil-receiver safe and
// return nil, so ungoverned evaluation pays only a nil check.
type Governor struct {
	ctx    context.Context
	budget Budget
	res    *mem.Reservation
	rows   atomic.Int64
	bytes  atomic.Int64
	ticks  atomic.Uint64
}

// New creates a Governor over ctx. The caller owns the context: apply
// a wall-clock budget with context.WithTimeout before calling New
// (engine.RunContext does exactly that).
func New(ctx context.Context, b Budget) *Governor {
	return &Governor{ctx: ctx, budget: b}
}

// AttachReservation binds the query's memory-pool reservation to the
// governor, making the governor the single per-query handle operators
// consult for both budget accounting and tracked allocation. Called
// once at query admission, before evaluation starts.
func (g *Governor) AttachReservation(r *mem.Reservation) {
	if g == nil {
		return
	}
	g.res = r
}

// Reservation returns the query's memory reservation (nil — unlimited
// — for a nil Governor or an unreserved query). Operators derive
// per-operator trackers from it.
func (g *Governor) Reservation() *mem.Reservation {
	if g == nil {
		return nil
	}
	return g.res
}

// Context returns the query's context (context.Background for a nil
// Governor), for code that blocks on channels or timers.
func (g *Governor) Context() context.Context {
	if g == nil || g.ctx == nil {
		return context.Background()
	}
	return g.ctx
}

// Check consults the context and maps its error into the taxonomy:
// deadline expiry becomes ErrTimeout, caller cancellation ErrCanceled.
func (g *Governor) Check() error {
	if g == nil || g.ctx == nil {
		return nil
	}
	return MapContextErr(g.ctx.Err())
}

// Tick is the cooperative cancellation check for operator inner loops:
// it increments a shared counter and performs a full Check every 256
// calls. One atomic add per row is the steady-state cost — on a cache
// line every worker of the query writes, so a loop hot enough for that
// to show (the GMDJ's scans and detail pass) calls Check on a cadence
// it counts locally instead.
func (g *Governor) Tick() error {
	if g == nil {
		return nil
	}
	if g.ticks.Add(1)&tickMask != 0 {
		return nil
	}
	return g.Check()
}

// AccountAppend records the materialization of rows totalling
// approximately bytes and reports a typed budget violation when a cap
// is exceeded. Called at relation-append sites.
func (g *Governor) AccountAppend(rows, bytes int64) error {
	if g == nil {
		return nil
	}
	r := g.rows.Add(rows)
	b := g.bytes.Add(bytes)
	if g.budget.MaxRows > 0 && r > g.budget.MaxRows {
		return &BudgetError{Kind: ErrRowBudget, Limit: g.budget.MaxRows, Observed: r}
	}
	if g.budget.MaxMemBytes > 0 && b > g.budget.MaxMemBytes {
		return &BudgetError{Kind: ErrMemBudget, Limit: g.budget.MaxMemBytes, Observed: b}
	}
	return nil
}

// Rows returns the rows materialized so far.
func (g *Governor) Rows() int64 {
	if g == nil {
		return 0
	}
	return g.rows.Load()
}

// Bytes returns the approximate bytes materialized so far.
func (g *Governor) Bytes() int64 {
	if g == nil {
		return 0
	}
	return g.bytes.Load()
}

// Uncancelable reports whether ctx can never be canceled — Done()
// returns nil, which context guarantees only for contexts with no
// cancellation, deadline, or timeout anywhere in their chain
// (context.Background, context.TODO, and value-only derivations such
// as obs.WithRequestID). This is the engine's governor-free fast-path
// predicate: an uncancelable context has nothing for a governor to
// watch, so skipping governance for it is unobservable by
// construction.
//
// Contract: callers may use Uncancelable only to elide work whose sole
// purpose is reacting to cancellation (ticks, deadline checks). It
// must never gate accounting, observability, or results — a query must
// produce identical output, stats trees, and trace spans whether or
// not its context is cancelable.
func Uncancelable(ctx context.Context) bool {
	return ctx.Done() == nil
}

// MapContextErr converts context errors into the governance taxonomy,
// passing every other error (including nil) through unchanged.
func MapContextErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, context.DeadlineExceeded):
		return ErrTimeout
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	default:
		return err
	}
}
