package gmdj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// governData builds a base/detail pair sized so a parallel scan is in
// flight long enough for a concurrent cancel to land mid-partition.
func governData(nBase, nDetail int) (*relation.Relation, *relation.Relation) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < nBase; i++ {
		base.Append(relation.Tuple{value.Int(int64(i))})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < nDetail; i++ {
		detail.Append(relation.Tuple{value.Int(int64(i % (2 * nBase)))})
	}
	return base, detail
}

// nonEquiCond forces the per-detail full base scan (no equi binding),
// the slowest GMDJ path — maximizing the window in which cancellation
// must be observed.
func nonEquiCond() []algebra.GMDJCond {
	return []algebra.GMDJCond{{
		Theta: expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
}

// waitGoroutines fails the test unless the goroutine count falls back
// to before within five seconds: pools must leave no worker behind.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelConcurrentCancellation races a 4-worker scan against
// cancellation arriving at varied offsets. Run under -race this also
// checks the pool's stop-flag/first-error synchronization. Either the
// scan wins (nil error) or the cancel wins (ErrCanceled); anything
// else — a hang, a leak, an unmapped context error — fails.
func TestParallelConcurrentCancellation(t *testing.T) {
	base, detail := governData(10, 30_000)
	conds := nonEquiCond()
	before := runtime.NumGoroutine()
	delays := []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond}
	for _, d := range delays {
		for trial := 0; trial < 2; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func(d time.Duration) {
				defer close(done)
				time.Sleep(d)
				cancel()
			}(d)
			out, err := Evaluate(base, detail, conds, Options{
				Workers: 4,
				Gov:     govern.New(ctx, govern.Budget{}),
			})
			if err != nil && !errors.Is(err, govern.ErrCanceled) {
				t.Fatalf("delay %v: err = %v, want nil or ErrCanceled", d, err)
			}
			if err == nil && out.Len() != base.Len() {
				t.Fatalf("delay %v: completed scan returned %d rows, want %d", d, out.Len(), base.Len())
			}
			<-done
		}
	}
	waitGoroutines(t, before)
}

// TestParallelBudgetAbort: a row budget breached at emit time aborts a
// parallel evaluation with the typed budget error.
func TestParallelBudgetAbort(t *testing.T) {
	base, detail := governData(10, 1000)
	gov := govern.New(context.Background(), govern.Budget{MaxRows: 5})
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Gov: gov})
	if !errors.Is(err, govern.ErrRowBudget) {
		t.Fatalf("err = %v, want ErrRowBudget", err)
	}
}

// TestParallelWorkerErrorStopsPool: an injected failure on one worker
// propagates as the evaluation's error and stops the remaining
// workers promptly (the pool drains within one row of the failure).
func TestParallelWorkerErrorStopsPool(t *testing.T) {
	base, detail := governData(10, 30_000)
	faults := govern.NewInjector(map[string]string{"gmdj.worker": "error"})
	start := time.Now()
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Faults: faults})
	if !errors.Is(err, govern.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("pool took %v to stop after worker error", el)
	}
}

// TestParallelWorkerPanicRecovered: a worker panic is recovered on the
// worker goroutine and converted to a typed internal error instead of
// crashing the process.
func TestParallelWorkerPanicRecovered(t *testing.T) {
	base, detail := governData(10, 1000)
	faults := govern.NewInjector(map[string]string{"gmdj.worker": "panic"})
	_, err := Evaluate(base, detail, nonEquiCond(), Options{Workers: 4, Faults: faults})
	if !errors.Is(err, govern.ErrInternal) {
		t.Fatalf("err = %v, want ErrInternal", err)
	}
	var ie *govern.InternalError
	if !errors.As(err, &ie) || len(ie.Stack) == 0 {
		t.Fatalf("err = %v, want *govern.InternalError with stack", err)
	}
}

// TestWorkerPanicEveryTaskCount: a scan's panic comes back as
// *govern.InternalError whether the fold runs one task inline (serial, or
// a spilled round of one partition) or two on the pool, and a spilled
// run gives back its charge and sweeps its files.
func TestWorkerPanicEveryTaskCount(t *testing.T) {
	base, detail := governData(10, 1000)
	spillBase, spillDetail, spillConds := spillFixture()
	for _, c := range []struct {
		name    string
		workers int
		spilled bool
	}{{"one task", 1, false}, {"two ranges", 2, false}, {"spilled, one partition a round", 1, true}} {
		var stats Stats
		opts := Options{Workers: c.workers, Stats: &stats, Faults: govern.NewInjector(map[string]string{"gmdj.worker": "panic"})}
		var err error
		if c.spilled {
			var used int64
			var live int
			if _, used, live, err = spillRun(t, 8<<10, spillBase, spillDetail, spillConds, opts, ""); used != 0 || live != 0 || stats.SpillPartitions == 0 {
				t.Errorf("%s: %d bytes charged, %d files left after spilling %d partitions; want 0, 0 after spilling", c.name, used, live, stats.SpillPartitions)
			}
		} else {
			_, err = Evaluate(base, detail, nonEquiCond(), opts)
		}
		var ie *govern.InternalError
		if !errors.As(err, &ie) || len(ie.Stack) == 0 {
			t.Errorf("%s: err = %v, want *govern.InternalError with stack", c.name, err)
		}
	}
}

// TestSerialCancellation: the serial scan honors the governor too.
func TestSerialCancellation(t *testing.T) {
	base, detail := governData(10, 30_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Evaluate(base, detail, nonEquiCond(), Options{
		Gov: govern.New(ctx, govern.Budget{}),
	})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// cancelAt is a detail-only predicate, always true, that cancels the
// query the moment it is evaluated over the detail row keyed at; seen
// counts the rows evaluated once that has happened.
type cancelAt struct {
	col    expr.Expr
	at     int64
	cancel context.CancelFunc
	fired  *atomic.Bool
	seen   *atomic.Int64
}

func (c *cancelAt) Bind(s *relation.Schema) (expr.Expr, error) {
	col, err := c.col.Bind(s)
	b := *c
	b.col = col
	return &b, err
}

func (c *cancelAt) Eval(row relation.Tuple) (value.Value, error) {
	v, err := c.col.Eval(row)
	if c.fired.Load() {
		c.seen.Add(1)
	} else if err == nil && v.AsInt() == c.at {
		c.cancel()
		c.fired.Store(true)
	}
	return value.Bool(true), err
}

func (c *cancelAt) Children() []expr.Expr { return []expr.Expr{c.col} }
func (c *cancelAt) String() string        { return fmt.Sprintf("cancelAt(%s, %d)", c.col, c.at) }

// TestDetailPassCancellation: a context canceled while the detail pass
// is running aborts the evaluation with ErrCanceled before any worker
// claims a morsel beyond the one it holds, and leaves no goroutine
// behind.
func TestDetailPassCancellation(t *testing.T) {
	const workers, morsels = 4, 40
	base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	base.Append(relation.Tuple{value.Int(1)})
	detail := relation.New(relation.NewSchema(relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt}))
	for i := 0; i < morsels*govern.MorselRows; i++ {
		detail.Append(relation.Tuple{value.Int(int64(i))})
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	var seen atomic.Int64
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")),
			&cancelAt{col: expr.C("R.k"), at: 3 * govern.MorselRows, cancel: cancel, fired: &fired, seen: &seen}),
		Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	_, err := Evaluate(base, detail, conds, Options{Workers: workers, Gov: govern.New(ctx, govern.Budget{})})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := seen.Load(); n >= workers*govern.MorselRows {
		t.Errorf("%d rows evaluated after the cancel, want under one morsel per worker (%d)", n, workers*govern.MorselRows)
	}
	waitGoroutines(t, before)
}
