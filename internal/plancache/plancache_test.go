package plancache

import (
	"fmt"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/relation"
)

func entry(tables ...string) *Entry {
	return &Entry{Plan: &algebra.Scan{Table: "t"}, Tables: tables, SchemaEpoch: 1}
}

func TestPlanCacheHitMissEpoch(t *testing.T) {
	c := New(0)
	k := Key{Text: "SELECT 1", Strategy: 0}
	if _, ok := c.Get(k, 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(k, entry("t"))
	if _, ok := c.Get(k, 1); !ok {
		t.Fatal("expected hit at same epoch")
	}
	// A different strategy is a different key.
	if _, ok := c.Get(Key{Text: "SELECT 1", Strategy: 3}, 1); ok {
		t.Fatal("strategy should partition the key space")
	}
	// A newer schema epoch invalidates the entry.
	if _, ok := c.Get(k, 2); ok {
		t.Fatal("stale entry served across epochs")
	}
	s := c.Stats()
	if s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("stats after invalidation: %+v", s)
	}
	if _, ok := c.Get(k, 2); ok || c.Stats().Invalidations != 1 {
		t.Fatal("invalidated entry still resident")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := New(1) // tiny budget: every entry overflows it
	for i := 0; i < 4; i++ {
		c.Put(Key{Text: fmt.Sprintf("q%d", i)}, entry())
	}
	s := c.Stats()
	if s.Entries != 1 {
		t.Fatalf("budget of 1 byte should keep only the newest entry, have %d", s.Entries)
	}
	if s.Evictions != 3 {
		t.Fatalf("evictions = %d, want 3", s.Evictions)
	}
	if _, ok := c.Get(Key{Text: "q3"}, 1); !ok {
		t.Fatal("most recent entry evicted")
	}
}

func TestPlanCachePurge(t *testing.T) {
	c := New(0)
	c.Put(Key{Text: "q"}, entry())
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("purge left %+v", s)
	}
}

// rels are distinct relations to cache: rels[i] is value i.
var rels = func() (r [4]*relation.Relation) {
	for i := range r {
		r[i] = relation.New(relation.NewSchema())
	}
	return r
}()

func TestResultCacheLRU(t *testing.T) {
	c := NewResults(100)
	c.Put("a", rels[1], 60)
	c.Put("b", rels[2], 60) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v != rels[2] {
		t.Fatalf("b = %v, %v", v, ok)
	}
	// Oversized values are refused outright.
	c.Put("huge", rels[3], 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized value cached")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}

	// The memo's edges of the shared LRU, one fresh cache per row.
	for _, tc := range []struct {
		name   string
		budget int64
		run    func(t *testing.T, c *ResultCache)
	}{
		{"same key replaces", 100, func(t *testing.T, c *ResultCache) {
			c.Put("a", rels[1], 60)
			c.Put("a", rels[2], 30)
			if v, ok := c.Get("a"); !ok || v != rels[2] {
				t.Fatalf("a = %v, %v; want the newer value", v, ok)
			}
			if s := c.Stats(); s.Entries != 1 || s.Bytes != 30 || s.Evictions != 0 {
				t.Fatalf("stats after replace: %+v", s)
			}
		}},
		{"get refreshes recency", 100, func(t *testing.T, c *ResultCache) {
			c.Put("a", rels[1], 40)
			c.Put("b", rels[2], 40)
			c.Get("a")
			c.Put("c", rels[3], 40) // evicts b, the least recent
			if _, ok := c.Get("b"); ok {
				t.Fatal("b should have been evicted")
			}
			if _, ok := c.Get("a"); !ok {
				t.Fatal("a was read last and should have stayed")
			}
		}},
		{"oversized keeps residents", 100, func(t *testing.T, c *ResultCache) {
			c.Put("a", rels[1], 60)
			c.Put("huge", rels[2], 101)
			if _, ok := c.Get("a"); !ok {
				t.Fatal("a refused value evicted a resident")
			}
			if s := c.Stats(); s.Entries != 1 || s.Bytes != 60 || s.Evictions != 0 {
				t.Fatalf("stats after refusal: %+v", s)
			}
		}},
		{"negative estimate is free", 100, func(t *testing.T, c *ResultCache) {
			c.Put("a", rels[1], -5)
			if s := c.Stats(); s.Entries != 1 || s.Bytes != 0 {
				t.Fatalf("stats after a negative estimate: %+v", s)
			}
		}},
		{"purge keeps counters", 100, func(t *testing.T, c *ResultCache) {
			c.Put("a", rels[1], 60)
			c.Get("a")
			c.Purge()
			if _, ok := c.Get("a"); ok {
				t.Fatal("purged entry served")
			}
			if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Hits != 1 || s.Misses != 1 {
				t.Fatalf("stats after purge: %+v", s)
			}
		}},
		{"hits and misses counted", 100, func(t *testing.T, c *ResultCache) {
			c.Get("a")
			c.Put("a", rels[1], 10)
			c.Get("a")
			c.Get("a")
			if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
				t.Fatalf("hits %d, misses %d; want 2, 1", s.Hits, s.Misses)
			}
		}},
		{"default budget", 0, func(t *testing.T, c *ResultCache) {
			c.Put("full", rels[1], DefaultResultBytes)
			c.Put("over", rels[2], DefaultResultBytes+1)
			if _, ok := c.Get("full"); !ok {
				t.Fatal("a value of the whole default budget refused")
			}
			if _, ok := c.Get("over"); ok {
				t.Fatal("a value past the default budget cached")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, NewResults(tc.budget)) })
	}
}

func TestResultKeyEpochTags(t *testing.T) {
	k1 := ResultKey("subsrc", "Scan(t)", []string{EpochTag("t", 7, 1)})
	k2 := ResultKey("subsrc", "Scan(t)", []string{EpochTag("t", 7, 2)})
	if k1 == k2 {
		t.Fatal("version bump must change the key")
	}
	k3 := ResultKey("subsrc", "Scan(t)", []string{EpochTag("t", 8, 1)})
	if k1 == k3 {
		t.Fatal("table identity must change the key")
	}
}

func TestCachesConcurrent(t *testing.T) {
	pc := New(0)
	rc := NewResults(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Text: fmt.Sprintf("q%d", i%17)}
				if _, ok := pc.Get(k, 1); !ok {
					pc.Put(k, entry())
				}
				rk := fmt.Sprintf("r%d", i%13)
				if _, ok := rc.Get(rk); !ok {
					rc.Put(rk, rels[i%len(rels)], 8)
				}
			}
		}(g)
	}
	wg.Wait()
}
