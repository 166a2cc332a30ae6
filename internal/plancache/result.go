package plancache

import (
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/relation"
)

// ResultCache is the engine-level memo of uncorrelated subquery sources:
// a byte-budgeted, in-memory LRU from opaque string keys to materialized
// relations, bounded by its own budget and not by the engine's memory
// pool. Invalidation is by key construction — every key embeds the
// id@version pair of each table the relation was computed from (see
// EpochTag), so a write to any dependency makes the old key
// unreachable. Relations must never be mutated after Put: they are
// shared across concurrent queries.
type ResultCache struct {
	lru[string, *relation.Relation]
}

// DefaultResultBytes bounds the result cache when callers pass a
// non-positive limit. Materialized subquery relations can be large, so
// the default is deliberately bigger than the plan cache's.
const DefaultResultBytes = 64 << 20

// NewResults creates a result cache holding at most maxBytes of
// caller-estimated value memory (<= 0 uses DefaultResultBytes).
func NewResults(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = DefaultResultBytes
	}
	return &ResultCache{newLRU[string, *relation.Relation](maxBytes)}
}

// Get returns the cached relation for key, if present.
func (c *ResultCache) Get(key string) (*relation.Relation, bool) { return c.get(key, nil) }

// Put stores rel under key with the caller's size estimate, evicting
// from the LRU tail until the budget holds. Relations larger than the
// whole budget are not cached at all.
func (c *ResultCache) Put(key string, rel *relation.Relation, bytes int64) {
	if bytes > c.max {
		return
	}
	c.put(key, rel, max(bytes, 0))
}

// Stats snapshots the cache counters (zero value for a nil cache).
func (c *ResultCache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return c.snapshot()
}

// EpochTag renders one table dependency as "name#id@version" for
// embedding in result-cache keys.
func EpochTag(name string, id, version uint64) string {
	return fmt.Sprintf("%s#%d@%d", name, id, version)
}

// ResultKey assembles a result-cache key from a kind ("subsrc"), a
// structural fingerprint of the computation, and the epoch tags of
// every table it reads.
func ResultKey(kind, fingerprint string, epochTags []string) string {
	return kind + "|" + fingerprint + "|" + strings.Join(epochTags, ",")
}
