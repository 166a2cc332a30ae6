package engine

import (
	"time"

	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/spill"
)

// Memory-adaptive execution: the engine owns one byte pool shared by
// every concurrent query and one scratch spill store shared by every
// operator. A query acquires a reservation from the pool on admission
// (queueing with a deadline when the pool is contended), carries it on
// its governor, and operators charge per-operator trackers against it.
// When a GMDJ node's state estimate does not fit its reservation, the
// node partitions its base state and spills cold partitions to the
// store instead of failing; with spilling disabled (SetSpillDir("")),
// exhaustion is a hard govern.ErrMemBudget — the "kill" regime the
// benchmark trajectories compare against.

// SetMemoryLimit installs (or removes, with n <= 0) the engine-wide
// memory pool bounding tracked operator state across all concurrent
// queries. Not safe to call concurrently with running queries.
func (e *Engine) SetMemoryLimit(n int64) {
	e.memLimit = n
	e.reconfigureMemory()
}

// SetSpillDir sets the scratch root for spill files (a per-engine
// subdirectory is created beneath it, and stale siblings from crashed
// runs are janitored away). The empty string disables spilling
// entirely: memory exhaustion then kills the query instead of
// degrading it. Not safe to call concurrently with running queries.
func (e *Engine) SetSpillDir(dir string) {
	e.spillRoot = dir
	e.spillDirSet = true
	e.reconfigureMemory()
}

// SetAdmissionTimeout bounds how long a query waits for pool memory
// before being shed with mem.ErrAdmissionTimeout (0 uses
// mem.DefaultAdmissionTimeout). Not safe to call concurrently with
// running queries.
func (e *Engine) SetAdmissionTimeout(d time.Duration) {
	e.admission = d
	e.reconfigureMemory()
}

// MemStatus reports the engine's memory posture.
type MemStatus struct {
	// Enabled is true when a memory pool bounds tracked state.
	Enabled bool
	// Pool is the pool snapshot (zero when disabled).
	Pool mem.PoolStats
	// SpillEnabled is true when exhaustion degrades to disk instead of
	// killing the query.
	SpillEnabled bool
	// Spill is the scratch-store snapshot (zero when disabled).
	Spill spill.StoreStats
}

// MemStatus snapshots the memory pool and spill store.
func (e *Engine) MemStatus() MemStatus {
	return MemStatus{
		Enabled:      e.pool != nil,
		Pool:         e.pool.Stats(),
		SpillEnabled: e.spillStore != nil,
		Spill:        e.spillStore.Stats(),
	}
}

// Close releases engine-owned disk state (the scratch spill directory
// and any env-derived data directory; an explicitly configured data
// directory stays on disk, and writes not yet checkpointed are
// committed to it first, an error doing so returned) and closes the
// memory pool:
// queries queued for admission are shed promptly with a typed error
// wrapping mem.ErrPoolClosed instead of waiting out their deadlines,
// and subsequent queries run unaccounted (purely in-memory). Safe to
// call more than once and concurrently with queries waiting for
// admission.
func (e *Engine) Close() error {
	e.pool.Close()
	err := e.flushDataDir()
	if serr := e.dropSpillStore(); err == nil {
		err = serr
	}
	e.closeDataDir()
	return err
}

// dropSpillStore removes the scratch store and its directory, if any.
func (e *Engine) dropSpillStore() error {
	err := e.spillStore.RemoveAll()
	e.spillStore, e.exec.Spill = nil, nil
	return err
}

// reconfigureMemory rebuilds the pool and scratch store from the
// current knobs. It tears down any previous store (removing its
// directory), so it must not run while queries are in flight. While
// New is still folding options it does nothing: New calls it once,
// after the last one.
func (e *Engine) reconfigureMemory() {
	if !e.built {
		return
	}
	// The memory limit bounds the morsel-parallel degree too: re-clamp
	// whenever the limit changes.
	e.applyParallelism()
	_ = e.dropSpillStore() // as before: a scratch directory that will not go is not fatal here
	// Shed anything still queued on a previous pool so reconfiguration
	// can never strand a waiter (typed error, not a deadlock).
	e.pool.Close()
	e.pool = mem.NewPool(e.memLimit, e.admission) // nil without a limit
	// An explicitly empty spill root is the kill regime: no spill store,
	// exhaustion is fatal.
	if e.pool != nil && !(e.spillDirSet && e.spillRoot == "") {
		if store, err := spill.NewScratch(e.spillRoot, e.exec.Faults); err != nil {
			// A broken scratch dir degrades to the kill regime rather than
			// failing engine construction; the counter makes it visible.
			e.counters.scratchErrors.Add(1)
		} else {
			e.spillStore, e.exec.Spill = store, store
		}
	}
	e.wireResultCache()
}

// wireResultCache connects the result cache to the memory subsystem:
// memory pressure first drains the cache's resident tier (the pool
// reclaims by demoting its LRU tail) before any query is forced to
// spill or die, and the cache's cold tier shares the scratch store.
func (e *Engine) wireResultCache() {
	if e.results == nil {
		e.pool.SetReclaim(nil)
		return
	}
	e.pool.SetReclaim(e.results.SpillDown)
	if e.spillStore != nil {
		e.results.EnableSpill(e.spillStore)
	}
}
