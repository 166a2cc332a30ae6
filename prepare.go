package gmdj

import (
	"context"
	"fmt"
	"sync"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/value"
)

// Stmt is a prepared statement: a query compiled once — parsed,
// resolved, and strategy-rewritten into a physical plan template —
// and executed many times with different parameter values. Statements
// follow database/sql's shape: placeholders are '?' (ordinal by
// position) or '$n' (explicit ordinals, reusable), arguments are
// ordinary Go values, and a Stmt is safe for concurrent Query calls.
//
//	stmt, err := db.Prepare(`SELECT name FROM users WHERE ip = ?`)
//	defer stmt.Close()
//	res, err := stmt.Query("10.0.0.1")
//
// A catalog change (DDL, a write to any table, index builds) after
// Prepare does not invalidate the Stmt: the next Query transparently
// recompiles against the current catalog.
type Stmt struct {
	db       *DB
	text     string
	strategy Strategy

	mu     sync.Mutex
	c      compiled // the plan cache's shared template; see bind
	closed bool
}

// Prepare compiles a query (which may contain '?' or '$n'
// placeholders) under the GMDJOpt strategy.
func (db *DB) Prepare(query string) (*Stmt, error) {
	return db.PrepareStrategy(query, GMDJOpt)
}

// PrepareStrategy is Prepare with an explicit evaluation strategy.
func (db *DB) PrepareStrategy(query string, s Strategy) (*Stmt, error) {
	c, err := db.compile(context.Background(), query, s)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: query, strategy: s, c: c}, nil
}

// NumParams returns the number of placeholders the statement expects.
func (st *Stmt) NumParams() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.c.explicit {
		return 0
	}
	return st.c.ent.NParams
}

// Text returns the statement's SQL text as given to Prepare.
func (st *Stmt) Text() string { return st.text }

// Query binds args to the statement's placeholders and executes it.
// Arguments are converted like Insert values (int, int64, float64,
// string, bool, nil); a count mismatch or unsupported value fails with
// an error matching ErrBadParam.
func (st *Stmt) Query(args ...any) (*Result, error) {
	return st.QueryContext(context.Background(), args...)
}

// QueryContext is Query honoring the caller's context.
func (st *Stmt) QueryContext(ctx context.Context, args ...any) (*Result, error) {
	bound, err := st.bind(ctx, args)
	if err != nil {
		return nil, err
	}
	rel, _, err := st.db.eng.RunPlanned(ctx, st.text, bound, st.strategy, false)
	return toResult(rel), err
}

// bind substitutes the arguments into the template, which is
// recompiled first (through compile, like any statement) when the
// catalog's schema epoch has moved since it was built.
func (st *Stmt) bind(ctx context.Context, args []any) (algebra.Node, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, fmt.Errorf("gmdj: statement is closed")
	}
	if st.c.ent.SchemaEpoch != st.db.cat.SchemaEpoch() {
		c, err := st.db.compile(ctx, st.text, st.strategy)
		if err != nil {
			st.mu.Unlock()
			return nil, err
		}
		st.c = c
	}
	c := st.c
	st.mu.Unlock()

	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("gmdj: argument %d: %v: %w", i+1, err, ErrBadParam)
		}
		vals[i] = v
	}
	return c.bind(vals)
}

// Close releases the statement. Further Query calls fail; Close is
// idempotent.
func (st *Stmt) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	return nil
}
