// Package plancache implements the cross-query caching layers behind
// prepared statements: a parameterized plan cache (normalized SQL →
// compiled physical plan template) and a result cache used for
// engine-level memoization of uncorrelated subquery materializations.
// Both are one byte-budgeted, in-memory LRU (lru), keyed and validated
// differently.
//
// Correctness relies on two epoch mechanisms (see DESIGN.md):
//
//   - Plan entries record the catalog schema epoch at compile time and
//     are revalidated on every hit; CREATE/DROP and index changes bump
//     the epoch, so a stale plan is never served.
//   - Result entries embed each dependency table's id@version pair in
//     their keys. Writers bump versions, so a write does not so much
//     invalidate old entries as make them unreachable; LRU pressure
//     eventually evicts them.
//
// Both caches are safe for concurrent use and keep their own hit/miss/
// eviction counters (Stats), which the engine's counter snapshot and
// the Prometheus families both render.
package plancache

import (
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
)

// Key identifies a cached plan: the normalized query text (literals
// lifted to $n placeholders) plus the strategy it was compiled for.
type Key struct {
	Text     string
	Strategy uint8
}

// Entry is one compiled plan template.
type Entry struct {
	// Plan is the physical plan, possibly containing expr.Param
	// placeholders. It is shared between executions and must be treated
	// as immutable; execution binds parameters onto a rewritten copy.
	Plan algebra.Node
	// NParams is the number of placeholders the template expects.
	NParams int
	// Tables lists the base tables the plan reads (sorted).
	Tables []string
	// SchemaEpoch is the catalog schema epoch the plan was compiled
	// under; a hit under any other epoch is discarded.
	SchemaEpoch uint64
}

// Cache is a byte-budgeted LRU plan cache.
type Cache struct{ lru[Key, *Entry] }

// DefaultPlanBytes is the plan-cache budget used when callers pass a
// non-positive limit: generous for plan templates (a plan is a few KB)
// while still bounding a pathological workload of distinct shapes.
const DefaultPlanBytes = 16 << 20

// New creates a plan cache holding at most maxBytes of estimated plan
// memory (<= 0 uses DefaultPlanBytes).
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultPlanBytes
	}
	return &Cache{newLRU[Key, *Entry](maxBytes)}
}

// Get returns the entry for k when present and compiled under
// schemaEpoch. A present-but-stale entry is dropped and counted as an
// invalidation (plus a miss: the caller must recompile either way).
func (c *Cache) Get(k Key, schemaEpoch uint64) (*Entry, bool) {
	return c.get(k, func(e *Entry) bool {
		if e.SchemaEpoch != schemaEpoch {
			c.stats.Invalidations++
			return false
		}
		return true
	})
}

// Put inserts (or replaces) the entry for k and evicts from the LRU
// tail until the byte budget holds.
func (c *Cache) Put(k Key, e *Entry) { c.put(k, e, planBytes(k, e)) }

// Stats snapshots the cache counters (zero value for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.snapshot()
}

// planBytes estimates an entry's resident size: key text plus a flat
// charge per plan node and expression. Exactness doesn't matter — the
// estimate only has to grow with plan complexity so the LRU budget
// means something.
func planBytes(k Key, e *Entry) int64 {
	const nodeCost, exprCost = 128, 48
	n := int64(len(k.Text)) + 64
	for _, t := range e.Tables {
		n += int64(len(t)) + 16
	}
	var nodes, exprs int64
	countNodes(e.Plan, &nodes)
	algebra.WalkExprs(e.Plan, func(expr.Expr) { exprs++ })
	return n + nodes*nodeCost + exprs*exprCost
}

func countNodes(n algebra.Node, total *int64) {
	if n == nil {
		return
	}
	*total++
	for _, c := range n.Children() {
		countNodes(c, total)
	}
}
