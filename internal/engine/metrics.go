package engine

import (
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/algebra"
)

// counters are the events the engine itself owns; every other event
// is counted by the component it happens in.
type counters struct {
	queries [Auto + 1]atomic.Int64 // indexed by Strategy
	errors  [len(errTable)]atomic.Int64

	coalesced, storageOpens, checkpointErrors, scratchErrors atomic.Int64
}

// Metrics snapshots every event counter of this engine, by name. Each
// counter has one home — a field on the component that owns the event,
// walked below (owner table: DESIGN.md §8.2) — and every surface
// (DB.Metrics, \stats, /debug/vars, gmdj_engine_events_total) renders
// this snapshot, while the typed Prometheus families read the same
// fields: surfaces cannot disagree, engines in one process never mix.
// A zero counter has no key. The pool, scratch store and durable store
// take their counters with them when replaced (Set*) or closed.
func (e *Engine) Metrics() map[string]int64 {
	out := map[string]int64{}
	add := func(name string, v int64) {
		if v != 0 {
			out[name] = v
		}
	}

	c := &e.counters
	for s := range c.queries {
		add("queries."+Strategy(s).String(), c.queries[s].Load())
	}
	for i := range c.errors {
		add("errors."+errTable[i].name, c.errors[i].Load())
	}
	add("gmdj.coalesced", c.coalesced.Load())
	add("storage.opens", c.storageOpens.Load())
	add("storage.checkpoint_errors", c.checkpointErrors.Load())
	add("spill.scratch_errors", c.scratchErrors.Load())

	scanned, pruned, overcommit, g := e.exec.Counters()
	add("rows_scanned", scanned)
	add("gmdj.detail_rows", g.DetailRows)
	add("gmdj.probes", g.Probes)
	add("gmdj.matches", g.Matches)
	add("gmdj.completed", g.Completed)
	add("gmdj.spill_partitions", g.SpillPartitions)
	add("gmdj.spill_bytes_written", g.SpillBytesWritten)
	add("gmdj.extra_detail_scans", g.ExtraDetailScans)
	add("storage.segments_pruned", pruned)
	add("mem.subquery_overcommit", overcommit)
	add("faults.injected", e.exec.Faults.Injected())

	pc := e.plans.Stats()
	add("plancache.hit", pc.Hits)
	add("plancache.miss", pc.Misses)
	add("plancache.invalidation", pc.Invalidations)
	add("plancache.eviction", pc.Evictions)

	pool := e.pool.Stats()
	add("mem.admitted", pool.Admitted)
	add("mem.queued", pool.QueuedTotal)
	add("mem.admission_timeouts", pool.TimedOut)
	add("mem.closed_sheds", pool.ClosedSheds)

	sp := e.spillStore.Stats()
	add("spill.stale_dirs_removed", int64(sp.StaleDirsRemoved))
	add("spill.writes", sp.Writes)
	add("spill.bytes_written", sp.BytesWritten)
	add("spill.reads", sp.Reads)
	add("spill.bytes_read", sp.BytesRead)

	if e.store != nil {
		ds := e.store.Stats(nil)
		add("storage.torn_writes", ds.TornWrites)
		add("storage.manifests_skipped", ds.SkippedManifests)
		add("storage.recoveries", ds.Recoveries)
		add("storage.segments_quarantined", ds.Quarantined)
		add("storage.segments_recovered", ds.SegmentsRecovered)
		add("storage.segments_written", ds.SegmentsWritten)
		add("storage.bytes_written", ds.BytesWritten)
		add("storage.checkpoints", ds.Checkpoints)
		add("storage.bytes_read", ds.BytesRead)
	}
	return out
}

// gmdjNodes counts the GMDJ operators in a plan, including those
// inside subquery blocks the rewrite left in predicates (each block is
// walked as the σ[Where](Source) it denotes).
func gmdjNodes(n algebra.Node) int {
	count := 0
	if _, ok := n.(*algebra.GMDJ); ok {
		count = 1
	}
	if r, ok := n.(*algebra.Restrict); ok {
		algebra.WalkPred(r.Where, func(q algebra.Pred) bool {
			if sp, ok := q.(*algebra.SubPred); ok {
				count += gmdjNodes(algebra.NewRestrict(sp.Sub.Source, sp.Sub.Where))
			}
			return true
		})
	}
	for _, ch := range n.Children() {
		count += gmdjNodes(ch)
	}
	return count
}
