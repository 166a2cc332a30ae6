package gmdj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
)

// The governance tests exercise every evaluation strategy: a governed
// abort must carry the same typed error no matter which physical plan
// was running.
var allStrategies = []Strategy{Native, Unnest, GMDJ, GMDJOpt}

// governQuery is a correlated aggregate subquery — the paper's core
// construct — so each strategy produces a genuinely different plan
// (tuple iteration, outer-join unnesting, GMDJ).
const governQuery = `
  SELECT h.hr FROM hours h
  WHERE 0 < (SELECT AVG(f.bytes) FROM flows f
             WHERE f.start >= h.lo AND f.start < h.hi)`

// governDB builds hours windows [i*10, i*10+10) and flows whose start
// times cover every window, so governQuery returns all `hours` rows.
func governDB(t testing.TB, hours, flows int, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("hours", Col("hr", Int), Col("lo", Int), Col("hi", Int))
	rows := make([][]any, 0, hours)
	for i := 0; i < hours; i++ {
		rows = append(rows, []any{i, i * 10, (i + 1) * 10})
	}
	db.MustInsert("hours", rows...)
	db.MustCreateTable("flows", Col("start", Int), Col("proto", String), Col("bytes", Int))
	rows = rows[:0]
	span := hours * 10
	for i := 0; i < flows; i++ {
		proto := "HTTP"
		if i%3 == 0 {
			proto = "FTP"
		}
		rows = append(rows, []any{i % span, proto, i%100 + 1})
	}
	db.MustInsert("flows", rows...)
	return db
}

// waitGoroutines polls until the goroutine count settles back to at
// most want, tolerating runtime background goroutines that wind down
// asynchronously after a canceled query.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not settle: %d running, want <= %d", n, want)
			return
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBudgetAbortsAllStrategies: each budget kind aborts each strategy
// with its matching typed error, promptly, without leaking goroutines.
func TestBudgetAbortsAllStrategies(t *testing.T) {
	cases := []struct {
		name   string
		budget Budget
		want   error
	}{
		{"timeout", Budget{Timeout: time.Nanosecond}, ErrTimeout},
		{"max-rows", Budget{MaxRows: 10}, ErrRowBudget},
		{"max-mem", Budget{MaxMemBytes: 512}, ErrMemBudget},
	}
	before := runtime.NumGoroutine()
	for _, c := range cases {
		// Four workers exercise the GMDJ worker pool's abort path too.
		db := governDB(t, 50, 4000, WithParallelism(4), WithBudget(c.budget))
		for _, s := range allStrategies {
			t.Run(fmt.Sprintf("%v/%s", s, c.name), func(t *testing.T) {
				start := time.Now()
				_, err := db.QueryStrategy(governQuery, s)
				elapsed := time.Since(start)
				if !errors.Is(err, c.want) {
					t.Fatalf("err = %v, want %v", err, c.want)
				}
				if elapsed > 5*time.Second {
					t.Errorf("abort took %v, not prompt", elapsed)
				}
			})
		}
	}
	waitGoroutines(t, before)

	// Budget errors carry the observed and configured limits.
	db := governDB(t, 50, 4000, WithBudget(Budget{MaxRows: 10}))
	_, err := db.Query(governQuery)
	var be *govern.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *govern.BudgetError", err)
	}
	if be.Limit != 10 || be.Observed != 11 {
		t.Errorf("BudgetError = limit %d observed %d, want 10/11", be.Limit, be.Observed)
	}
}

// TestCancelAllStrategies: a context canceled before the query starts
// aborts every strategy with ErrCanceled.
func TestCancelAllStrategies(t *testing.T) {
	db := governDB(t, 20, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, s := range allStrategies {
		if _, err := db.QueryStrategyContext(ctx, governQuery, s); !errors.Is(err, ErrCanceled) {
			t.Errorf("%v: err = %v, want ErrCanceled", s, err)
		}
	}
}

// TestMidFlightCancelAllStrategies: cancellation arriving while the
// query is running aborts it promptly. A 10s delay fault at exec.scan
// pins every strategy mid-flight deterministically; the query must
// return long before the delay would expire.
func TestMidFlightCancelAllStrategies(t *testing.T) {
	t.Setenv(govern.EnvFaults, "exec.scan=delay:10s")
	db := governDB(t, 20, 500)
	before := runtime.NumGoroutine()
	for _, s := range allStrategies {
		t.Run(fmt.Sprint(s), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				time.Sleep(5 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := db.QueryStrategyContext(ctx, governQuery, s)
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("err = %v, want ErrCanceled", err)
			}
			if elapsed > 2*time.Second {
				t.Errorf("cancel took %v, not prompt", elapsed)
			}
		})
	}
	waitGoroutines(t, before)
}

// TestInjectedPanicAllStrategies: an operator panic is recovered at
// the engine boundary and surfaces as a typed ErrInternal — under
// every strategy — keeps the plan it compiled reusable (a rerun hits
// the plan cache and fails the same way), and the database stays usable
// afterwards, for a query that does not reach the faulted site (a
// selection). internal/engine's TestRecoveredPanicSameQuery reruns the
// panicking query itself with the fault gone.
func TestInjectedPanicAllStrategies(t *testing.T) {
	t.Setenv(govern.EnvFaults, "exec.restrict=panic")
	db := governDB(t, 20, 500)
	for _, s := range allStrategies {
		_, err := db.QueryStrategy(governQuery, s)
		if !errors.Is(err, ErrInternal) {
			t.Errorf("%v: err = %v, want ErrInternal", s, err)
		}
		var ie *govern.InternalError
		if !errors.As(err, &ie) {
			t.Errorf("%v: err = %v, want *govern.InternalError", s, err)
		} else if ie.Node == "" || len(ie.Stack) == 0 {
			t.Errorf("%v: InternalError missing node (%q) or stack", s, ie.Node)
		}
	}
	plans := db.PlanCacheStats()
	if plans.Entries != len(allStrategies) {
		t.Errorf("plan cache holds %d entries, want one per strategy", plans.Entries)
	}
	for _, s := range allStrategies {
		if _, err := db.QueryStrategy(governQuery, s); !errors.Is(err, ErrInternal) {
			t.Errorf("%v rerun: err = %v, want ErrInternal", s, err)
		}
	}
	if got := db.PlanCacheStats().Hits - plans.Hits; got != int64(len(allStrategies)) {
		t.Errorf("reruns hit the plan cache %d times, want %d", got, len(allStrategies))
	}
	if res, err := db.Query("SELECT hr FROM hours"); err != nil || res.Len() != 20 {
		t.Fatalf("database unusable after recovered panics: %v", err)
	}
}

// TestWorkerPanicIsolated: a panic on a parallel GMDJ worker goroutine
// is recovered on that goroutine (the engine-boundary recover cannot
// shield it), stops the pool, and surfaces as ErrInternal without
// leaking the other workers.
func TestWorkerPanicIsolated(t *testing.T) {
	t.Setenv(govern.EnvFaults, "gmdj.worker=panic")
	db := governDB(t, 50, 4000, WithParallelism(4))
	before := runtime.NumGoroutine()
	for _, s := range []Strategy{GMDJ, GMDJOpt} {
		if _, err := db.QueryStrategy(governQuery, s); !errors.Is(err, ErrInternal) {
			t.Errorf("%v: err = %v, want ErrInternal", s, err)
		}
	}
	waitGoroutines(t, before)
}

// TestFaultSitesPerStrategy: every named injection site in the plan a
// strategy actually runs aborts the query with ErrInjected, proving
// the error path is wired through each operator; a panic at the scan,
// which every plan reaches, surfaces as ErrInternal.
func TestFaultSitesPerStrategy(t *testing.T) {
	cases := []struct {
		site, action string
		strategies   []Strategy
		want         error
	}{
		{"exec.scan", "error", allStrategies, govern.ErrInjected},
		{"exec.scan", "panic", allStrategies, ErrInternal},
		{"exec.restrict", "error", allStrategies, govern.ErrInjected},
		{"exec.project", "error", allStrategies, govern.ErrInjected},
		{"exec.subquery", "error", []Strategy{Native}, govern.ErrInjected},
		{"exec.join", "error", []Strategy{Unnest}, govern.ErrInjected},
		{"exec.groupby", "error", []Strategy{Unnest}, govern.ErrInjected},
		{"gmdj.compile", "error", []Strategy{GMDJ, GMDJOpt}, govern.ErrInjected},
		{"gmdj.emit", "error", []Strategy{GMDJ, GMDJOpt}, govern.ErrInjected},
		{"gmdj.worker", "error", []Strategy{GMDJ, GMDJOpt}, govern.ErrInjected},
	}
	for _, c := range cases {
		t.Setenv(govern.EnvFaults, c.site+"="+c.action)
		db := governDB(t, 20, 500, WithParallelism(2))
		for _, s := range c.strategies {
			t.Run(fmt.Sprintf("%s=%s/%v", c.site, c.action, s), func(t *testing.T) {
				_, err := db.QueryStrategy(governQuery, s)
				if !errors.Is(err, c.want) {
					t.Fatalf("err = %v, want %v", err, c.want)
				}
			})
		}
	}
}

// TestUngovernedQueriesUnaffected: with no budget and a background
// context, queries take the ungoverned fast path and still agree
// across strategies.
func TestUngovernedQueriesUnaffected(t *testing.T) {
	db := governDB(t, 20, 500)
	want := -1
	for _, s := range allStrategies {
		res, err := db.QueryStrategy(governQuery, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if want < 0 {
			want = res.Len()
		} else if res.Len() != want {
			t.Errorf("%v: %d rows, other strategies returned %d", s, res.Len(), want)
		}
	}
	if want != 20 {
		t.Errorf("governQuery returned %d rows, want 20", want)
	}
}
