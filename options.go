package gmdj

import (
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/plancache"
)

// Option configures a DB at Open time, so a fully configured database
// is built in one expression:
//
//	db := gmdj.Open(
//		gmdj.WithParallelism(4),
//		gmdj.WithBudget(gmdj.Budget{Timeout: time.Second}),
//		gmdj.WithPlanCache(1<<20),
//	)
//
// A zero numeric argument means "not set": the GMDJ_* environment, then
// the built-in default, applies (see Open).
type Option = engine.Option

// WithParallelism sets the database's morsel-driven execution degree:
// how many workers each parallel operator pipeline may use. Table
// scans are split into morsels (fixed row ranges) that workers claim
// and push through filter/projection pipelines; hash-join build and
// probe, and GMDJ detail scans, parallelize the same way. Results are
// byte-identical to serial execution at any degree.
//
//	n > 1  — run up to n workers per query
//	n == 1 — force serial execution
//	n <= 0 — not set: GMDJ_PARALLEL, else runtime.GOMAXPROCS(0)
//
// When a memory limit is configured the effective degree is
// additionally clamped so per-worker pipeline scratch fits the limit.
// Small inputs run serial regardless — the morsel scheduler only spins
// up workers when there is enough work to split.
func WithParallelism(n int) Option {
	return func(c *engine.Config) {
		if n > 0 {
			c.Parallelism = n
		}
	}
}

// WithBudget bounds every query on the DB; see Budget.
func WithBudget(b Budget) Option {
	return func(c *engine.Config) { c.Budget = b }
}

// WithUseIndexes toggles secondary-index use by the Native strategy
// (on by default).
func WithUseIndexes(on bool) Option {
	return func(c *engine.Config) { c.UseIndexes = on }
}

// WithMemoizeSubqueries toggles per-query invariant reuse (Rao & Ross)
// in the Native strategy.
func WithMemoizeSubqueries(on bool) Option {
	return func(c *engine.Config) { c.MemoizeSubqueries = on }
}

// WithPlanCache sets the parameterized plan cache's byte budget. The
// cache is on by default (see Open); 0 is not set and keeps the default
// 16 MiB budget, a negative value disables plan caching entirely.
func WithPlanCache(maxBytes int64) Option {
	return func(c *engine.Config) { c.PlanCacheBytes = maxBytes }
}

// CacheStats snapshots the plan cache's counters (PlanCacheStats).
type CacheStats struct {
	// Hits and Misses count lookups.
	Hits, Misses int64
	// Evictions counts entries dropped for space (LRU order).
	Evictions int64
	// Invalidations counts entries dropped because the catalog changed
	// under them.
	Invalidations int64
	// Entries and Bytes describe current occupancy.
	Entries int
	Bytes   int64
}

func toCacheStats(s plancache.Stats) CacheStats {
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses,
		Evictions: s.Evictions, Invalidations: s.Invalidations,
		Entries: s.Entries, Bytes: s.Bytes,
	}
}

// PlanCacheStats snapshots the plan cache's counters. All zeros when
// plan caching is disabled.
func (db *DB) PlanCacheStats() CacheStats { return toCacheStats(db.eng.PlanCache().Stats()) }
