package gmdj

import (
	"context"
	"errors"
	"fmt"

	"github.com/olaplab/gmdj/internal/relation"
)

// Rows is a cursor over a query's result, shaped like database/sql's:
//
//	rows, err := db.QueryRows(`SELECT src, bytes FROM flows`)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var src string
//		var n int64
//		if err := rows.Scan(&src, &n); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Evaluation runs concurrently with the caller from the moment
// QueryRows returns; Next blocks until the result is ready. Close is
// governance-aware: closing a cursor whose query is still running
// cancels the query's context, aborting evaluation cooperatively
// within a few hundred rows of any operator loop — abandoning a
// cursor never leaks a running query.
type Rows struct {
	cancel context.CancelFunc
	done   chan struct{}

	// written by the runner goroutine before close(done); read only
	// after <-done.
	rel *relation.Relation
	err error

	i      int // next row index
	closed bool
}

// QueryRows runs a query under the GMDJOpt strategy and returns a
// cursor over its rows. The plan cache applies as in Query.
func (db *DB) QueryRows(query string) (*Rows, error) {
	return db.QueryRowsContext(context.Background(), query)
}

// QueryRowsStrategy is QueryRows with an explicit strategy.
func (db *DB) QueryRowsStrategy(query string, s Strategy) (*Rows, error) {
	return db.QueryRowsStrategyContext(context.Background(), query, s)
}

// QueryRowsContext is QueryRows honoring the caller's context in
// addition to Close's cancellation.
func (db *DB) QueryRowsContext(ctx context.Context, query string) (*Rows, error) {
	return db.QueryRowsStrategyContext(ctx, query, GMDJOpt)
}

// QueryRowsStrategyContext is QueryRowsStrategy honoring the caller's
// context.
func (db *DB) QueryRowsStrategyContext(ctx context.Context, query string, s Strategy) (*Rows, error) {
	// Compile synchronously so syntax and resolution errors surface
	// here, not from Next.
	phys, err := db.plan(ctx, query, s)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithCancel(ctx)
	r := &Rows{cancel: cancel, done: make(chan struct{})}
	go func() {
		// Release the derived context as soon as evaluation stops, even
		// when the caller abandons the cursor without Next or Close: the
		// runner goroutine must not depend on the caller for its cleanup,
		// and an uncancelled child context stays registered on the
		// caller's context tree (pinning a propagation goroutine for
		// non-stdlib parents) for that context's whole lifetime.
		defer close(r.done)
		defer cancel()
		r.rel, _, r.err = db.eng.RunPlanned(cctx, query, phys, s, false)
	}()
	return r, nil
}

// Next advances to the next row, blocking until it is available. It
// returns false when the rows are exhausted, the query failed (see
// Err), or the cursor is closed.
func (r *Rows) Next() bool {
	<-r.done
	if r.closed || r.err != nil || r.rel == nil || r.i >= r.rel.Len() {
		return false
	}
	r.i++
	return true
}

// Columns returns the result column names. It blocks until the query
// completes and returns nil if it failed.
func (r *Rows) Columns() []string {
	<-r.done
	if r.rel == nil {
		return nil
	}
	cols := make([]string, r.rel.Schema.Len())
	for i, c := range r.rel.Schema.Columns {
		cols[i] = c.Name
	}
	return cols
}

// Scan copies the current row (positioned by Next) into dest, which
// must hold one pointer per result column: *int64, *float64, *string,
// *bool receive exact types (NULL is an error there); *any receives
// the value as Result.Rows cells do, with NULL as nil.
func (r *Rows) Scan(dest ...any) error {
	if r.closed {
		return fmt.Errorf("gmdj: Scan on closed Rows")
	}
	if r.i == 0 {
		return fmt.Errorf("gmdj: Scan called before Next")
	}
	<-r.done
	if r.err != nil {
		return r.err
	}
	row := r.rel.Rows[r.i-1]
	if len(dest) != len(row) {
		return fmt.Errorf("gmdj: Scan got %d destinations, row has %d columns", len(dest), len(row))
	}
	for j, d := range dest {
		v := row[j]
		switch p := d.(type) {
		case *any:
			*p = fromValue(v)
		case *int64:
			x, ok := fromValue(v).(int64)
			if !ok {
				return fmt.Errorf("gmdj: Scan column %d: cannot store %s into *int64", j+1, v)
			}
			*p = x
		case *float64:
			switch x := fromValue(v).(type) {
			case float64:
				*p = x
			case int64:
				*p = float64(x)
			default:
				return fmt.Errorf("gmdj: Scan column %d: cannot store %s into *float64", j+1, v)
			}
		case *string:
			x, ok := fromValue(v).(string)
			if !ok {
				return fmt.Errorf("gmdj: Scan column %d: cannot store %s into *string", j+1, v)
			}
			*p = x
		case *bool:
			x, ok := fromValue(v).(bool)
			if !ok {
				return fmt.Errorf("gmdj: Scan column %d: cannot store %s into *bool", j+1, v)
			}
			*p = x
		default:
			return fmt.Errorf("gmdj: Scan column %d: unsupported destination type %T", j+1, d)
		}
	}
	return nil
}

// Err returns the error that terminated iteration, if any. An error
// caused solely by Close canceling a still-running query is not
// reported — abandoning a cursor is not a failure.
func (r *Rows) Err() error {
	select {
	case <-r.done:
	default:
		// Query still running and not yet iterated: no error to report.
		return nil
	}
	if r.closed && errors.Is(r.err, ErrCanceled) {
		return nil
	}
	return r.err
}

// Close releases the cursor. If the query is still running its
// context is canceled and Close blocks until evaluation has fully
// stopped — including the removal of any spill files the query had in
// flight (see WithMemoryLimit). Close is idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cancel()
	<-r.done
	return nil
}
