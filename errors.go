package gmdj

import (
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
)

// Catalog and statement errors. Every error returned from the public
// API for these conditions matches the corresponding sentinel with
// errors.Is, regardless of how much context wraps it.
var (
	// ErrTableExists: CREATE TABLE (SQL or CreateTable) named a table
	// that is already registered.
	ErrTableExists = storage.ErrTableExists
	// ErrUnknownTable: a statement referenced a table that does not
	// exist.
	ErrUnknownTable = storage.ErrUnknownTable
	// ErrBadParam: a statement's placeholders and the supplied
	// arguments disagree — wrong count, an unsupported Go value, or a
	// query containing placeholders executed without a prepared
	// statement.
	ErrBadParam = expr.ErrBadParam
)

// Memory-adaptive execution errors (see WithMemoryLimit).
var (
	// ErrSpillIO: a disk operation on spilled operator state failed —
	// writing a partition (e.g. ENOSPC, short write) or reading one back
	// (I/O error, checksum mismatch). The query is aborted and its spill
	// files are removed; the database itself is unaffected.
	ErrSpillIO = spill.ErrSpillIO
	// ErrAdmissionTimeout: the query waited longer than the admission
	// timeout for memory-pool capacity and was shed without running.
	// Retry when concurrent load subsides, or raise the limit.
	ErrAdmissionTimeout = mem.ErrAdmissionTimeout
	// ErrClosed: DB.Close ran while the query was queued for memory
	// admission; the wait could never be satisfied, so the query was
	// shed instead of deadlocking. Queries started after Close run
	// unaccounted (purely in-memory) and do not see this error.
	ErrClosed = mem.ErrPoolClosed
)

// Durable-storage errors (see WithDataDir).
var (
	// ErrSegmentCorrupt: a durable segment failed checksum or structural
	// verification, or the query touched a table quarantined by
	// recovery. Unlike ErrSpillIO it is not retryable — the bytes on
	// disk are wrong and stay wrong until the table is re-created (which
	// rewrites its segment at the next checkpoint).
	ErrSegmentCorrupt = storage.ErrSegmentCorrupt
)

// ErrorClass is the classification of one query error: its taxonomy
// kind, the exit code CLIs report it with, the HTTP status the serving
// layer sends it under, and whether a retry can plausibly succeed.
type ErrorClass = engine.ErrorClass

// Classify maps a non-nil error from this package onto the one error
// taxonomy (DESIGN.md §11), which the engine's errors.<kind> counters,
// olapd's responses and olapql's exit code all read. An error matching
// no sentinel — a syntax error, an unknown table, a bad parameter — is
// the query's fault: kind "query", exit code 1, HTTP 400.
func Classify(err error) ErrorClass { return engine.Classify(err) }

// ErrorClasses lists every class Classify can return.
func ErrorClasses() []ErrorClass { return engine.ErrorClasses() }
