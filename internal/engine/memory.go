package engine

import (
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
// store instead of failing; with spilling disabled (Config.SpillDir
// ""), exhaustion is a hard govern.ErrMemBudget — the "kill" regime the
// benchmark trajectories compare against. New builds both once, from
// the resolved Config (buildMemory).

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
	if serr := e.spillStore.RemoveAll(); err == nil {
		err = serr
	}
	e.spillStore, e.exec.Spill = nil, nil
	e.closeDataDir()
	return err
}

// buildMemory builds the pool and the scratch store from the resolved
// Config; New calls it once.
func (e *Engine) buildMemory() {
	e.pool = mem.NewPool(e.cfg.MemoryLimit, e.cfg.AdmissionTimeout) // nil without a limit
	// An empty spill root is the kill regime: no spill store,
	// exhaustion is fatal.
	if e.pool == nil || e.cfg.SpillDir == "" {
		return
	}
	store, err := spill.NewScratch(e.cfg.SpillDir, e.cfg.Faults)
	if err != nil {
		// A broken scratch dir degrades to the kill regime rather than
		// failing engine construction; the counter makes it visible.
		e.counters.scratchErrors.Add(1)
		return
	}
	e.spillStore, e.exec.Spill = store, store
}
