package plancache

import (
	"container/list"
	"fmt"
	"strings"
	"sync"

	"github.com/olaplab/gmdj/internal/spill"
)

// ResultCache is the engine-level memo behind cross-query subquery and
// GMDJ reuse: a byte-budgeted LRU from opaque string keys to immutable
// values. Invalidation is by key construction — every key embeds the
// id@version pair of each table the value was computed from (see
// EpochTag), so a write to any dependency makes the old key
// unreachable. Values must never be mutated after Put: they are shared
// across concurrent queries.
type ResultCache struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	ll    *list.List // front = most recent; values are *resultItem
	items map[string]*list.Element
	stats Stats
	// store, when non-nil, backs the cold tier (see result_spill.go):
	// evicted encodable values demote to checksummed temp files and
	// promote back on Get instead of being recomputed.
	store *spill.Store
	cold  map[string]*coldItem
}

type resultItem struct {
	key   string
	value any
	bytes int64
}

// DefaultResultBytes bounds the result cache when callers pass a
// non-positive limit. Materialized subquery relations can be large, so
// the default is deliberately bigger than the plan cache's.
const DefaultResultBytes = 64 << 20

// NewResults creates a result cache holding at most maxBytes of
// caller-estimated value memory (<= 0 uses DefaultResultBytes). A
// non-nil store backs its cold tier; the cache never replaces it.
func NewResults(maxBytes int64, store *spill.Store) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultBytes
	}
	return &ResultCache{max: maxBytes, ll: list.New(), items: make(map[string]*list.Element),
		store: store, cold: map[string]*coldItem{}}
}

// Get returns the cached value for key, if present.
func (c *ResultCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if v, ok := c.promoteLocked(key); ok {
			c.stats.Hits++
			return v, true
		}
		c.stats.Misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*resultItem).value, true
}

// Put stores value under key with the caller's size estimate, evicting
// from the LRU tail until the budget holds. Values larger than the
// whole budget are not cached at all.
func (c *ResultCache) Put(key string, value any, bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	if bytes > 0 && bytes > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.removeLocked(el)
	}
	if ci, ok := c.cold[key]; ok {
		// A fresh Put supersedes any demoted copy of the same key.
		delete(c.cold, key)
		ci.file.Remove()
	}
	el := c.ll.PushFront(&resultItem{key: key, value: value, bytes: bytes})
	c.items[key] = el
	c.cur += bytes
	c.shrinkLocked()
}

func (c *ResultCache) removeLocked(el *list.Element) {
	it := el.Value.(*resultItem)
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.cur -= it.bytes
}

// Stats snapshots the cache counters (zero value for a nil cache).
func (c *ResultCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.cur
	s.ColdEntries = len(c.cold)
	for _, ci := range c.cold {
		s.ColdBytes += ci.file.Bytes
	}
	return s
}

// Purge drops every entry, resident and cold (counters are preserved).
func (c *ResultCache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	c.cur = 0
	for key, ci := range c.cold {
		ci.file.Remove()
		delete(c.cold, key)
	}
}

// EpochTag renders one table dependency as "name#id@version" for
// embedding in result-cache keys.
func EpochTag(name string, id, version uint64) string {
	return fmt.Sprintf("%s#%d@%d", name, id, version)
}

// ResultKey assembles a result-cache key from a kind ("subsrc",
// "gmdjhash", ...), a structural fingerprint of the computation, and
// the epoch tags of every table it reads.
func ResultKey(kind, fingerprint string, epochTags []string) string {
	return kind + "|" + fingerprint + "|" + strings.Join(epochTags, ",")
}
