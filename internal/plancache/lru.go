package plancache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits, Misses, Evictions, Invalidations int64
	Entries                                int
	Bytes                                  int64
}

// lru is the byte-budgeted LRU behind both caches: a map into a list
// whose front is the most recent entry, a byte total the caller's
// estimates add up to, and the counters. Safe for concurrent use.
type lru[K comparable, V any] struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	ll    *list.List // front = most recent; values are *lruItem[K, V]
	items map[K]*list.Element
	stats Stats
}

type lruItem[K comparable, V any] struct {
	key   K
	value V
	bytes int64
}

func newLRU[K comparable, V any](maxBytes int64) lru[K, V] {
	return lru[K, V]{max: maxBytes, ll: list.New(), items: make(map[K]*list.Element)}
}

// get returns k's value and marks it most recent. A present value that
// valid (when non-nil, called under the lock) rejects is dropped; it
// counts as a miss like an absent one.
func (c *lru[K, V]) get(k K, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if ok && valid != nil && !valid(el.Value.(*lruItem[K, V]).value) {
		c.removeLocked(el)
		ok = false
	}
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*lruItem[K, V]).value, true
}

// put inserts (or replaces) k and evicts from the tail until the byte
// budget holds, always keeping the newest entry.
func (c *lru[K, V]) put(k K, v V, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	c.items[k] = c.ll.PushFront(&lruItem[K, V]{key: k, value: v, bytes: bytes})
	c.cur += bytes
	for c.cur > c.max && c.ll.Len() > 1 {
		c.stats.Evictions++
		c.removeLocked(c.ll.Back())
	}
}

func (c *lru[K, V]) removeLocked(el *list.Element) {
	it := el.Value.(*lruItem[K, V])
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.cur -= it.bytes
}

func (c *lru[K, V]) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Bytes = c.cur
	return s
}

// Purge drops every entry (counters are preserved).
func (c *lru[K, V]) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.items = make(map[K]*list.Element)
	c.cur = 0
}
