package plancache

import (
	"fmt"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
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

// TestPlanCacheLRU: the LRU's edges, one fresh cache per row. Keys of
// one length over equal entries cost the same planBytes, b.
func TestPlanCacheLRU(t *testing.T) {
	k := func(s string) Key { return Key{Text: s} }
	b := planBytes(k("a"), entry())
	for _, tc := range []struct {
		name   string
		budget int64
		run    func(t *testing.T, c *Cache)
	}{
		{"same key replaces", 0, func(t *testing.T, c *Cache) {
			older, newer := entry("t"), entry()
			c.Put(k("a"), older)
			c.Put(k("a"), newer)
			if e, ok := c.Get(k("a"), 1); !ok || e != newer {
				t.Fatalf("a = %v, %v; want the newer entry", e, ok)
			}
			if s := c.Stats(); s.Entries != 1 || s.Bytes != b || s.Evictions != 0 {
				t.Fatalf("stats after replace: %+v", s)
			}
		}},
		{"get refreshes recency", 2*b + b/2, func(t *testing.T, c *Cache) {
			c.Put(k("a"), entry())
			c.Put(k("b"), entry())
			c.Get(k("a"), 1)
			c.Put(k("c"), entry()) // evicts b, the least recent
			if _, ok := c.Get(k("b"), 1); ok {
				t.Fatal("b should have been evicted")
			}
			if _, ok := c.Get(k("a"), 1); !ok {
				t.Fatal("a was read last and should have stayed")
			}
		}},
		{"replace does not evict", 2 * b, func(t *testing.T, c *Cache) {
			c.Put(k("a"), entry())
			c.Put(k("b"), entry())
			c.Put(k("a"), entry()) // the old a's bytes leave before the budget check
			if s := c.Stats(); s.Entries != 2 || s.Bytes != 2*b || s.Evictions != 0 {
				t.Fatalf("stats after replacing a resident: %+v", s)
			}
		}},
		{"oversized keeps the newest", b, func(t *testing.T, c *Cache) {
			huge := entry("a_table_name_long_enough_to_outgrow_the_budget")
			c.Put(k("a"), entry())
			c.Put(k("h"), huge)
			if _, ok := c.Get(k("a"), 1); ok {
				t.Fatal("a resident kept beside an entry past the budget")
			}
			if e, ok := c.Get(k("h"), 1); !ok || e != huge {
				t.Fatal("the newest entry was refused")
			}
			if s := c.Stats(); s.Entries != 1 || s.Bytes != planBytes(k("h"), huge) || s.Evictions != 1 {
				t.Fatalf("stats after an oversized entry: %+v", s)
			}
		}},
		{"stale entry frees its bytes", 0, func(t *testing.T, c *Cache) {
			c.Put(k("a"), entry())
			if _, ok := c.Get(k("a"), 2); ok {
				t.Fatal("entry served under another schema epoch")
			}
			if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 || s.Invalidations != 1 || s.Misses != 1 {
				t.Fatalf("stats after an invalidation: %+v", s)
			}
		}},
		{"hits and misses counted", 0, func(t *testing.T, c *Cache) {
			c.Get(k("a"), 1)
			c.Put(k("a"), entry())
			c.Get(k("a"), 1)
			c.Get(k("a"), 1)
			if s := c.Stats(); s.Hits != 2 || s.Misses != 1 {
				t.Fatalf("hits %d, misses %d; want 2, 1", s.Hits, s.Misses)
			}
		}},
		{"default budget", 0, func(t *testing.T, c *Cache) {
			if c.max != DefaultPlanBytes {
				t.Fatalf("budget %d, want DefaultPlanBytes", c.max)
			}
			if New(-1).max != DefaultPlanBytes {
				t.Fatal("a negative budget does not take the default")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, New(tc.budget)) })
	}
}

func TestCachesConcurrent(t *testing.T) {
	pc := New(20 * planBytes(Key{Text: "q00"}, entry())) // 17 keys, some evicted
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Text: fmt.Sprintf("q%02d", i%17), Strategy: uint8(g % 2)}
				if _, ok := pc.Get(k, 1); !ok {
					pc.Put(k, entry())
				}
				if i%50 == 0 {
					pc.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if s := pc.Stats(); s.Hits+s.Misses != 8*200 {
		t.Fatalf("hits %d + misses %d, want %d lookups", s.Hits, s.Misses, 8*200)
	}
}
