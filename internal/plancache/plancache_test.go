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

func TestPlanCachePurge(t *testing.T) {
	c := New(0)
	c.Put(Key{Text: "q"}, entry())
	c.Purge()
	if s := c.Stats(); s.Entries != 0 || s.Bytes != 0 {
		t.Fatalf("purge left %+v", s)
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResults(100, nil)
	c.Put("a", 1, 60)
	c.Put("b", 2, 60) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a should have been evicted")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatalf("b = %v, %v", v, ok)
	}
	// Oversized values are refused outright.
	c.Put("huge", 3, 1000)
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized value cached")
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
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
	rc := NewResults(0, nil)
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
					rc.Put(rk, i, 8)
				}
			}
		}(g)
	}
	wg.Wait()
}
