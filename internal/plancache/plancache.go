// Package plancache implements the parameterized plan cache behind
// prepared statements: normalized SQL → compiled physical plan
// template, one byte-budgeted, in-memory LRU.
//
// Entries record the catalog schema epoch at compile time and are
// revalidated on every hit; CREATE/DROP and index changes bump the
// epoch, so a stale plan is never served (see DESIGN.md §9). The cache
// is safe for concurrent use and keeps its own hit/miss/eviction
// counters (Stats), which the engine's counter snapshot and the
// Prometheus families both render.
package plancache

import (
	"container/list"
	"sync"

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

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
	Entries                                int
	Bytes                                  int64
}

// Cache is a byte-budgeted LRU plan cache: a map into a list whose
// front is the most recent entry, a byte total the planBytes estimates
// add up to, and the counters.
type Cache struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	ll    *list.List // front = most recent; values are *item
	items map[Key]*list.Element
	stats Stats
}

type item struct {
	key   Key
	entry *Entry
	bytes int64
}

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
	return &Cache{max: maxBytes, ll: list.New(), items: make(map[Key]*list.Element)}
}

// Get returns the entry for k when present and compiled under
// schemaEpoch, and marks it most recent. A present-but-stale entry is
// dropped and counted as an invalidation (plus a miss: the caller must
// recompile either way).
func (c *Cache) Get(k Key, schemaEpoch uint64) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok && el.Value.(*item).entry.SchemaEpoch != schemaEpoch {
		c.stats.Invalidations++
		c.removeLocked(el)
		ok = false
	}
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*item).entry, true
}

// Put inserts (or replaces) the entry for k and evicts from the LRU
// tail until the byte budget holds, always keeping the newest entry.
func (c *Cache) Put(k Key, e *Entry) {
	bytes := planBytes(k, e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	c.items[k] = c.ll.PushFront(&item{key: k, entry: e, bytes: bytes})
	c.cur += bytes
	for c.cur > c.max && c.ll.Len() > 1 {
		c.stats.Evictions++
		c.removeLocked(c.ll.Back())
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	it := el.Value.(*item)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.cur -= it.bytes
}

// Stats snapshots the cache counters (zero value for a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.cur
	return s
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
