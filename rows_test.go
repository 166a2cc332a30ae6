package gmdj

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
)

func TestQueryRowsIterate(t *testing.T) {
	db := usersDB(t)
	rows, err := db.QueryRows(`SELECT name, score FROM users ORDER BY score`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if cols := rows.Columns(); len(cols) != 2 || cols[0] != "name" || cols[1] != "score" {
		t.Fatalf("Columns = %v", cols)
	}
	var names []string
	var last int64 = -1
	for rows.Next() {
		var name string
		var score int64
		if err := rows.Scan(&name, &score); err != nil {
			t.Fatal(err)
		}
		if score < last {
			t.Fatalf("rows out of order: %d after %d", score, last)
		}
		last = score
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "ann,bob,cat" {
		t.Fatalf("names = %v", names)
	}
}

func TestQueryRowsScanAny(t *testing.T) {
	db := usersDB(t)
	rows, err := db.QueryRows(`SELECT name, score FROM users WHERE name = 'ann'`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no rows: %v", rows.Err())
	}
	var name, score any
	if err := rows.Scan(&name, &score); err != nil {
		t.Fatal(err)
	}
	if name != "ann" || score != int64(10) {
		t.Fatalf("got (%v, %v)", name, score)
	}
	// Type mismatch is an error, not a panic.
	if rows.Next() {
		t.Fatal("expected one row")
	}
}

func TestQueryRowsScanErrors(t *testing.T) {
	db := usersDB(t)
	rows, err := db.QueryRows(`SELECT name FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	var s string
	if err := rows.Scan(&s); err == nil {
		t.Fatal("Scan before Next should fail")
	}
	if !rows.Next() {
		t.Fatal("no rows")
	}
	var n int64
	if err := rows.Scan(&n); err == nil {
		t.Fatal("Scan string into *int64 should fail")
	}
	var a, b string
	if err := rows.Scan(&a, &b); err == nil {
		t.Fatal("Scan arity mismatch should fail")
	}
}

func TestQueryRowsParseErrorIsSynchronous(t *testing.T) {
	db := usersDB(t)
	if _, err := db.QueryRows(`SELEC name FROM users`); err == nil {
		t.Fatal("parse error should surface from QueryRows, not Next")
	}
}

func TestQueryRowsCloseCancelsRunningQuery(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("big", Col("x", Int))
	rows := make([][]any, 0, 3000)
	for i := 0; i < 3000; i++ {
		rows = append(rows, []any{int64(i)})
	}
	db.MustInsert("big", rows...)
	// A quadratic NOT EXISTS under Native keeps the engine busy long
	// enough for Close to land mid-flight on most runs; the asserts
	// below hold either way.
	r, err := db.QueryRowsStrategy(`SELECT a.x FROM big a WHERE NOT EXISTS (
		SELECT * FROM big b WHERE b.x = a.x + 3001)`, Native)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Next() {
		t.Fatal("Next after Close should be false")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil (cancellation is not a failure)", err)
	}
	// The database remains fully usable.
	res, err := db.Query(`SELECT COUNT(*) AS n FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(3000) {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestQueryRowsRealError(t *testing.T) {
	db := usersDB(t, WithBudget(Budget{MaxRows: 1}))
	r, err := db.QueryRows(`SELECT name FROM users`)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for r.Next() {
	}
	if err := r.Err(); !errors.Is(err, ErrRowBudget) {
		t.Fatalf("Err = %v, want ErrRowBudget", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("x", Int))
	if err := db.CreateTable("t", Col("x", Int)); !errors.Is(err, ErrTableExists) {
		t.Fatalf("CreateTable dup: %v, want ErrTableExists", err)
	}
	if _, err := db.Exec(`CREATE TABLE t (x INT)`); !errors.Is(err, ErrTableExists) {
		t.Fatalf("SQL CREATE dup: %v, want ErrTableExists", err)
	}
	if err := db.Insert("missing", []any{int64(1)}); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("Insert missing: %v, want ErrUnknownTable", err)
	}
	if _, err := db.Query(`SELECT x FROM missing`); !errors.Is(err, ErrUnknownTable) {
		t.Fatalf("Query missing: %v, want ErrUnknownTable", err)
	}
	if err := fmt.Errorf("wrap: %w", ErrUnknownTable); !errors.Is(err, ErrUnknownTable) {
		t.Fatal("sentinel does not survive wrapping")
	}
}

// Abandoning a cursor — no Next, no Close, just dropping it — must not
// leak the runner goroutine or its governor: the runner's own deferred
// cancel releases the query context without the caller's help.
func TestQueryRowsAbandonedNoLeak(t *testing.T) {
	db := usersDB(t)
	baseline := runtime.NumGoroutine()
	var cursors []*Rows
	for i := 0; i < 20; i++ {
		rows, err := db.QueryRows(`SELECT name FROM users`)
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, rows)
	}
	waitGoroutines(t, baseline+2)
	joinRunners(cursors)
}

// joinRunners closes cursors a test abandoned, after its leak check has
// passed: the DB's cleanup Close must happen after the runners' last
// engine read, and a goroutine count is not a synchronization edge.
func joinRunners(cursors []*Rows) {
	for _, rows := range cursors {
		rows.Close()
	}
}

// opaqueCtx hides its parent's identity from the context package, the
// way any third-party context implementation does: context.WithCancel
// on it must spawn a propagation goroutine that lives until the parent
// finishes or the CHILD is canceled. That makes the runner's deferred
// cancel goroutine-observable.
type opaqueCtx struct{ inner context.Context }

func (c opaqueCtx) Deadline() (time.Time, bool) { return c.inner.Deadline() }
func (c opaqueCtx) Done() <-chan struct{}       { return c.inner.Done() }
func (c opaqueCtx) Err() error                  { return c.inner.Err() }
func (c opaqueCtx) Value(any) any               { return nil }

// The same with the queries still running at abandon time, issued
// under a long-lived caller context the caller never cancels: the
// runner's own deferred cancel must release each query's derived
// context (and its propagation goroutine) the moment evaluation stops
// — cleanup must not depend on the caller calling Next or Close, nor
// on the caller's context ever ending.
func TestQueryRowsAbandonedMidQueryNoLeak(t *testing.T) {
	t.Setenv(govern.EnvFaults, "exec.scan=delay:100ms")
	db := usersDB(t)
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	baseline := runtime.NumGoroutine()
	var cursors []*Rows
	for i := 0; i < 8; i++ {
		rows, err := db.QueryRowsContext(opaqueCtx{parent}, `SELECT name FROM users`)
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, rows)
	}
	// All 8 runners are mid-delay now; none gets a Next or Close, and
	// parent stays alive past the check.
	waitGoroutines(t, baseline+2)
	joinRunners(cursors)
}
