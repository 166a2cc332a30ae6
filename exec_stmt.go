package gmdj

import (
	"context"
	"fmt"

	"github.com/olaplab/gmdj/internal/sql"
)

// Exec executes one SQL statement: SELECT queries return a Result;
// CREATE TABLE, INSERT INTO ... VALUES, and DROP TABLE return a nil
// Result on success. Queries run under the GMDJOpt strategy; use
// ExecStrategy to pick another.
func (db *DB) Exec(stmt string) (*Result, error) {
	return db.ExecStrategy(stmt, GMDJOpt)
}

// ExecContext is Exec honoring the caller's context for SELECT
// evaluation. DDL and INSERT are not governed: they are O(statement)
// catalog mutations, not query evaluations.
func (db *DB) ExecContext(ctx context.Context, stmt string) (*Result, error) {
	return db.ExecStrategyContext(ctx, stmt, GMDJOpt)
}

// ExecStrategy is Exec with an explicit query strategy.
func (db *DB) ExecStrategy(stmt string, s Strategy) (*Result, error) {
	return db.ExecStrategyContext(context.Background(), stmt, s)
}

// ExecStrategyContext is ExecStrategy honoring the caller's context.
func (db *DB) ExecStrategyContext(ctx context.Context, stmt string, s Strategy) (*Result, error) {
	parsed, err := sql.ParseStatement(stmt)
	if err != nil {
		return nil, err
	}
	switch st := parsed.(type) {
	case *sql.SelectStmt:
		return db.QueryStrategyContext(ctx, stmt, s)
	case *sql.CreateTableStmt:
		return nil, db.createTable(st.Name, st.Cols)
	case *sql.InsertStmt:
		t, err := db.cat.Table(st.Table)
		if err != nil {
			return nil, err
		}
		return nil, t.Append(st.Rows)
	case *sql.DropTableStmt:
		if _, err := db.cat.Table(st.Name); err != nil {
			return nil, err
		}
		db.cat.Drop(st.Name)
		return nil, nil
	default:
		return nil, fmt.Errorf("gmdj: unsupported statement %T", parsed)
	}
}
