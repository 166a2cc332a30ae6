package plancache

import (
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
)

// The result cache's cold tier: with a spill store (NewResults), eviction
// demotes materialized subquery relations to checksummed temp files
// instead of dropping them, and Get promotes them back on demand. Any
// other value (a GMDJ detail hash vector) is dropped: rehashing it
// costs less than writing and reading it back. SpillDown is the memory-
// pressure valve the engine pool's reclaim hook drives: it frees
// resident cache bytes by pushing the LRU tail cold, so a memory-
// hungry query can proceed without killing the cache outright.

// coldItem is one demoted relation.
type coldItem struct {
	file  *spill.File
	bytes int64 // original in-memory size estimate
}

// demoteLocked moves it to the cold tier if it is a relation. Failures
// degrade to a plain drop — the cache is an optimization and must never
// fail a query.
func (c *ResultCache) demoteLocked(it *resultItem) {
	rel, ok := it.value.(*relation.Relation)
	if c.store == nil || !ok {
		return
	}
	f, err := c.store.Write("resultcache", spill.EncodeRelation(rel))
	if err != nil {
		return
	}
	if old, dup := c.cold[it.key]; dup {
		old.file.Remove()
	}
	c.cold[it.key] = &coldItem{file: f, bytes: it.bytes}
	c.stats.SpillWrites++
}

// promoteLocked loads a cold entry back into resident memory (caller
// holds the lock and has missed the resident map). The cold file is
// consumed either way; a read or decode failure degrades to a miss.
func (c *ResultCache) promoteLocked(key string) (any, bool) {
	ci, ok := c.cold[key]
	if !ok {
		return nil, false
	}
	delete(c.cold, key)
	data, err := ci.file.Read()
	if err != nil {
		return nil, false
	}
	ci.file.Remove()
	v, err := spill.DecodeRelation(data)
	if err != nil {
		return nil, false
	}
	c.stats.SpillReads++
	el := c.ll.PushFront(&resultItem{key: key, value: v, bytes: ci.bytes})
	c.items[key] = el
	c.cur += ci.bytes
	c.shrinkLocked()
	return v, true
}

// shrinkLocked restores the resident-byte invariant, demoting or
// dropping LRU-tail entries.
func (c *ResultCache) shrinkLocked() {
	for c.cur > c.max && c.ll.Len() > 1 {
		el := c.ll.Back()
		it := el.Value.(*resultItem)
		c.stats.Evictions++
		c.demoteLocked(it)
		c.removeLocked(el)
	}
}

// SpillDown frees at least n resident bytes by demoting LRU-tail
// relations to the cold tier (dropping every other entry),
// returning the bytes actually freed. It is the engine memory pool's
// reclaim hook: called when a query's reservation cannot grow, on
// whatever goroutine hit the pressure.
func (c *ResultCache) SpillDown(n int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var freed int64
	for freed < n && c.ll.Len() > 0 {
		el := c.ll.Back()
		it := el.Value.(*resultItem)
		c.demoteLocked(it)
		c.removeLocked(el)
		freed += it.bytes
		c.stats.SpillDowns++
	}
	return freed
}
