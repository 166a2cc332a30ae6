package obs

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketIndexBounds: every representable value maps into range and
// its bucket's bounds contain it; bucket bounds tile without gaps.
func TestBucketIndexBounds(t *testing.T) {
	values := []int64{0, 1, 2, 15, 16, 17, 31, 32, 33, 100, 1000, 1 << 20, 1<<62 - 1, 1 << 62}
	for _, v := range values {
		idx := bucketIndex(v)
		if idx < 0 || idx >= histNumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range [0,%d)", v, idx, histNumBuckets)
		}
		lo, hi := bucketBounds(idx)
		if v < lo || v >= hi {
			t.Errorf("value %d in bucket %d with bounds [%d,%d)", v, idx, lo, hi)
		}
	}
	// Tiling: consecutive buckets share an edge.
	for i := 0; i < 200; i++ {
		_, hi := bucketBounds(i)
		lo, _ := bucketBounds(i + 1)
		if hi != lo {
			t.Fatalf("bucket %d hi=%d but bucket %d lo=%d", i, hi, i+1, lo)
		}
	}
}

// TestHistogramQuantiles: on a uniform 1..1000 sample, quantiles land
// within the histogram's ~6% relative resolution.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for v := int64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("count/min/max = %d/%d/%d", s.Count, s.Min, s.Max)
	}
	check := func(q float64, want int64) {
		got := s.Quantile(q)
		slack := want/8 + 2 // one sub-bucket width
		if got < want-slack || got > want+slack {
			t.Errorf("q%.2f = %d, want %d ±%d", q, got, want, slack)
		}
	}
	check(0.50, 500)
	check(0.90, 900)
	check(0.99, 990)
	if s.P50 != s.Quantile(0.50) || s.P99 != s.Quantile(0.99) {
		t.Error("precomputed P50/P99 disagree with Quantile")
	}
}

// TestHistogramMergeIdentical is the merge-semantics contract: the
// same multiset of samples recorded serially into one histogram,
// concurrently into one shared histogram, and sharded across per-worker
// histograms then merged — as serial and parallel GMDJ workers do —
// must produce identical bucket counts. Run under -race this also
// proves the record path is data-race-free.
func TestHistogramMergeIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, 20_000)
	for i := range samples {
		samples[i] = rng.Int63n(1 << 30)
	}

	serial := NewHistogram()
	for _, v := range samples {
		serial.Record(v)
	}

	const workers = 8
	shared := NewHistogram()
	shards := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		shards[w] = NewHistogram()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(samples); i += workers {
				shared.Record(samples[i])
				shards[w].Record(samples[i])
			}
		}(w)
	}
	wg.Wait()

	merged := NewHistogram()
	for _, sh := range shards {
		merged.Merge(sh)
	}

	want := serial.Snapshot()
	for name, h := range map[string]*Histogram{"shared": shared, "merged": merged} {
		got := h.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s snapshot differs from serial:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// TestHistogramNilSafe: nil receivers are inert on every method.
func TestHistogramNilSafe(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.RecordDuration(time.Second)
	h.Merge(NewHistogram())
	NewHistogram().Merge(h)
	if h.Count() != 0 {
		t.Error("nil Count != 0")
	}
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil Snapshot not empty")
	}
	var set *HistSet
	if set.Get("x") != nil {
		t.Error("nil HistSet.Get != nil")
	}
	set.Record("x", 1)
	if len(set.Snapshot()) != 0 {
		t.Error("nil HistSet.Snapshot not empty")
	}
}

// TestHistSetFormat: duration-valued families render humanly, counts
// stay numeric.
func TestHistSetFormat(t *testing.T) {
	s := NewHistSet()
	s.Record("query_ns.gmdj-opt", int64(3*time.Millisecond))
	s.Record("query_rows.gmdj-opt", 42)
	out := FormatHistograms(s.Snapshot())
	if !strings.Contains(out, "query_ns.gmdj-opt") || !strings.Contains(out, "ms") {
		t.Errorf("latency line not duration-formatted:\n%s", out)
	}
	if !strings.Contains(out, "query_rows.gmdj-opt") {
		t.Errorf("rows line missing:\n%s", out)
	}
}

// TestHistogramSnapshotUnderRecord: a snapshot taken while Record runs
// on other goroutines still renders as a valid Prometheus histogram —
// its Count is the sum of the buckets it read, so the +Inf bucket is
// never below the last cumulative one.
func TestHistogramSnapshotUnderRecord(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := int64(g); ; v += 7 {
				select {
				case <-stop:
					return
				default:
					h.Record(v % 100_000)
				}
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		p := NewPromWriter()
		p.Histogram("olap_test_seconds", "under concurrent Record", nil, h.Snapshot(), 1e-9)
		if err := ValidateExposition([]byte(p.String())); err != nil {
			t.Errorf("snapshot %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
