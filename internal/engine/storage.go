package engine

import (
	"errors"
	"fmt"
	"os"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/storage"
)

// Durable storage: the engine optionally owns a storage.DiskStore that
// persists every table as a list of immutable columnar segment files
// over consecutive row ranges and commits checkpoints as manifest
// generations; a checkpoint writes the rows appended since the last
// one, not the table. Checkpointing is transparent — the first query
// after any write (the catalog's write epoch moves on every insert,
// DDL, or index change) flushes dirty tables before executing, and so
// does Close — and explicit via Checkpoint for \checkpoint.

// EnvDataDir is the environment variable enabling durable storage for
// a whole process, e.g. GMDJ_DATA_DIR=/var/lib/gmdj. Because several
// engines (and several test processes) may share that root, each
// engine claims a fresh per-process subdirectory beneath it and
// removes it on Close — the env knob exercises the durable write path
// everywhere without leaking state across hermetic tests. A directory
// named by Config.DataDir or SetDataDir is used as-is: it recovers
// whatever the previous run committed and is never removed.
const EnvDataDir = "GMDJ_DATA_DIR"

// dataSeq distinguishes multiple env-derived data dirs in one process.
var dataSeq atomic.Int64

// SetDataDir opens (creating if needed) the durable store rooted at
// dir, recovers the newest committed generation into the catalog —
// quarantining, not failing on, corrupt segments — and enables
// transparent checkpointing. The empty string disables persistence.
// It is the one setting attached after construction, because opening
// can fail and callers report the recovery. Not safe to call
// concurrently with running queries.
func (e *Engine) SetDataDir(dir string) (*storage.RecoveryReport, error) {
	// Let go of the store being replaced — deleting it when it is an
	// env-derived directory the engine owns.
	e.closeDataDir()
	if dir == "" {
		return nil, nil
	}
	ds, err := storage.OpenDiskStore(dir, e.exec.Faults)
	if err != nil {
		return nil, err
	}
	rep, err := ds.Recover(e.cat)
	if err != nil {
		return nil, err
	}
	e.store = ds
	e.recovery = rep
	e.lastCkptEpoch.Store(-1) // force a checkpoint on the first query
	e.counters.storageOpens.Add(1)
	return rep, nil
}

// DataDir returns the durable store's directory ("" when persistence
// is off).
func (e *Engine) DataDir() string {
	if e.store == nil {
		return ""
	}
	return e.store.Dir()
}

// Recovery returns the report from the last SetDataDir recovery (nil
// when persistence is off).
func (e *Engine) Recovery() *storage.RecoveryReport { return e.recovery }

// DiskStore exposes the durable store (nil when persistence is off).
func (e *Engine) DiskStore() *storage.DiskStore { return e.store }

// Checkpoint persists what was written since the last checkpoint and
// commits a new manifest generation, returning the committed
// generation. It is an error when no data directory is configured.
func (e *Engine) Checkpoint() (uint64, error) {
	if e.store == nil {
		return 0, errors.New("engine: no data directory configured")
	}
	epoch := int64(e.cat.WriteEpoch())
	gen, err := e.store.Checkpoint(e.cat)
	if err != nil {
		e.counters.checkpointErrors.Add(1)
		return gen, err
	}
	e.lastCkptEpoch.Store(epoch)
	return gen, nil
}

// unflushed reports whether the catalog's write epoch moved since the
// last successful checkpoint (any write).
func (e *Engine) unflushed() bool {
	return e.store != nil && e.lastCkptEpoch.Load() != int64(e.cat.WriteEpoch())
}

// maybeCheckpoint runs at query start: unflushed writes are
// checkpointed before the query executes, so a crash at any instant
// loses at most the writes since the last completed query boundary. A
// checkpoint failure (disk full, injected fault) degrades durability
// but never fails the read — the error is counted and the query runs
// on the in-memory data.
func (e *Engine) maybeCheckpoint() {
	if e.unflushed() {
		_, _ = e.Checkpoint() // counted there; the read proceeds regardless
	}
}

// flushDataDir runs at Close: a clean close is not a crash, so writes
// no query or Checkpoint has flushed yet are committed before the store
// is let go — except into an env-derived directory, which is about to
// be deleted.
func (e *Engine) flushDataDir() error {
	if e.dataDirOwned || !e.unflushed() {
		return nil
	}
	_, err := e.Checkpoint()
	return err
}

// openDataDir opens Config.DataDir at construction. The directory
// envDefaults derived from GMDJ_DATA_DIR is the engine's own, removed
// when the engine lets go of it, and failing to open it is reported and
// ignored; an explicitly configured one that fails panics (see
// Config.DataDir).
func (e *Engine) openDataDir(dir, envDir string) {
	if dir == "" {
		return
	}
	if _, err := e.SetDataDir(dir); err != nil {
		if dir != envDir {
			panic(err)
		}
		fmt.Fprintf(os.Stderr, "engine: ignoring %s: %v\n", EnvDataDir, err)
		return
	}
	e.dataDirOwned = dir == envDir
}

// closeDataDir releases the durable store, on Close or when
// SetDataDir replaces it: an env-derived directory is deleted (it
// exists to exercise the write path in hermetic tests), an explicitly
// configured one is left fully committed on disk.
func (e *Engine) closeDataDir() {
	if e.store != nil && e.dataDirOwned {
		os.RemoveAll(e.store.Dir())
	}
	e.store = nil
	e.recovery = nil
	e.dataDirOwned = false
}
