package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Workload-level latency and cardinality distributions. A single
// query's EXPLAIN ANALYZE tree (obs.go) explains one run; the
// histograms here aggregate over *every* run, which is what makes
// strategy comparisons (GMDJ vs unnesting, coalescing on vs off)
// defensible on a live workload rather than a hand-picked query.
//
// The layout is HDR-histogram-flavoured: values are binned into
// log-spaced buckets with histSubBits sub-buckets per power of two,
// giving a bounded relative error (2^-histSubBits ≈ 6%) over the full
// int64 range with a fixed, modest footprint. Every mutation is a
// plain atomic add — no locks on the record path — so parallel GMDJ
// workers and concurrent queries can share one histogram, and Merge of
// per-shard histograms is exact (bucket counts are integers; serial
// and parallel runs over the same values produce identical buckets).

const (
	// histSubBits sets sub-bucket resolution: 2^histSubBits sub-buckets
	// per power of two, i.e. ~6.25% worst-case relative error.
	histSubBits  = 4
	histSubCount = 1 << histSubBits
	// histNumBuckets covers values 0..2^62 at that resolution: the
	// first histSubCount buckets are exact, then (62-histSubBits)
	// octaves of histSubCount sub-buckets each.
	histNumBuckets = histSubCount + (63-histSubBits)*histSubCount
)

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < histSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= histSubBits
	sub := (v >> (uint(exp) - histSubBits)) & (histSubCount - 1)
	return (exp-histSubBits)*histSubCount + histSubCount + int(sub)
}

// bucketBounds returns the [lo, hi) value range of a bucket.
func bucketBounds(idx int) (lo, hi int64) {
	if idx < histSubCount {
		return int64(idx), int64(idx) + 1
	}
	g := idx - histSubCount
	exp := g/histSubCount + histSubBits
	sub := int64(g % histSubCount)
	width := int64(1) << (uint(exp) - histSubBits)
	lo = (histSubCount + sub) * width
	return lo, lo + width
}

// Histogram is a mergeable, concurrency-safe log-bucketed histogram of
// non-negative int64 samples (latencies in nanoseconds, row counts).
// The zero value is NOT ready; use NewHistogram. All methods are
// nil-safe so disabled observability costs one nil check.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [histNumBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(1<<63 - 1))
	h.max.Store(-1)
	return h
}

// Record adds one sample (negatives clamp to 0). Lock-free; safe for
// concurrent use. Nil-safe.
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// RecordDuration records a duration sample in nanoseconds. Nil-safe.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count reports the number of recorded samples. Nil-safe.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Merge folds src's buckets into h (both keep working afterwards).
// Exact: merged bucket counts equal the counts of recording every
// sample into one histogram, regardless of sharding. Nil-safe on both
// sides.
func (h *Histogram) Merge(src *Histogram) {
	if h == nil || src == nil {
		return
	}
	h.count.Add(src.count.Load())
	h.sum.Add(src.sum.Load())
	if m := src.min.Load(); m < h.min.Load() {
		for {
			cur := h.min.Load()
			if m >= cur || h.min.CompareAndSwap(cur, m) {
				break
			}
		}
	}
	if m := src.max.Load(); m > h.max.Load() {
		for {
			cur := h.max.Load()
			if m <= cur || h.max.CompareAndSwap(cur, m) {
				break
			}
		}
	}
	for i := range src.buckets {
		if c := src.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
}

// HistBucket is one non-empty bucket of a snapshot: samples counted in
// value range [Lo, Hi).
type HistBucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistSnapshot is a point-in-time copy of a histogram with
// pre-computed summary quantiles. Taken bucket-by-bucket without
// stopping writers, so a snapshot racing a Record may be off by the
// in-flight sample — fine for dashboards, documented for tests.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	P50     int64        `json:"p50"`
	P90     int64        `json:"p90"`
	P99     int64        `json:"p99"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's state. Nil-safe (empty snapshot).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{}
	if h == nil {
		return s
	}
	// Count is the sum of the buckets read, not h.count: Record adds its
	// bucket last, so under concurrent writers h.count and the buckets
	// disagree, and a snapshot whose buckets exceed its Count renders as
	// a non-cumulative Prometheus histogram.
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c != 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, HistBucket{Lo: lo, Hi: hi, Count: c})
			s.Count += c
		}
	}
	if s.Count == 0 {
		return s
	}
	s.Sum = h.sum.Load()
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns the approximate q-quantile (0 < q <= 1) of the
// snapshot: the midpoint of the bucket containing the q·Count-th
// sample, clamped to the observed min/max.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(q*float64(s.Count) + 0.5)
	if target < 1 {
		target = 1
	}
	var seen int64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= target {
			mid := b.Lo + (b.Hi-b.Lo)/2
			if mid < s.Min {
				mid = s.Min
			}
			if mid > s.Max {
				mid = s.Max
			}
			return mid
		}
	}
	return s.Max
}

// HistSet is a named family of histograms (latency by strategy, rows
// by operator kind). Lookup takes a read-lock; creation (rare) a write
// lock; recording is lock-free on the histogram itself. Nil-safe.
type HistSet struct {
	mu sync.RWMutex
	m  map[string]*Histogram
}

// NewHistSet returns an empty set.
func NewHistSet() *HistSet { return &HistSet{m: map[string]*Histogram{}} }

// Get returns the named histogram, creating it on first use. Returns
// nil (a no-op histogram) on a nil set.
func (s *HistSet) Get(name string) *Histogram {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	h := s.m[name]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if h = s.m[name]; h == nil {
		h = NewHistogram()
		s.m[name] = h
	}
	return h
}

// Record adds a sample to the named histogram. Nil-safe.
func (s *HistSet) Record(name string, v int64) { s.Get(name).Record(v) }

// Snapshot copies every histogram in the set. Nil-safe (empty map).
func (s *HistSet) Snapshot() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	if s == nil {
		return out
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.m))
	hists := make([]*Histogram, 0, len(s.m))
	for k, h := range s.m {
		names = append(names, k)
		hists = append(hists, h)
	}
	s.mu.RUnlock()
	for i, k := range names {
		out[k] = hists[i].Snapshot()
	}
	return out
}

// FormatHistograms renders a snapshot map as aligned text, one line
// per histogram: count, mean, min/p50/p90/p99/max. Durations are
// assumed for *_ns names and rendered human-readably.
func FormatHistograms(snaps map[string]HistSnapshot) string {
	keys := make([]string, 0, len(snaps))
	for k := range snaps {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		s := snaps[k]
		if s.Count == 0 {
			continue
		}
		format := func(v int64) string { return fmt.Sprintf("%d", v) }
		if strings.HasSuffix(strings.SplitN(k, ".", 2)[0], "_ns") {
			format = func(v int64) string { return fmtDuration(time.Duration(v)) }
		}
		mean := s.Sum / s.Count
		fmt.Fprintf(&b, "%-28s n=%-7d mean=%-10s min=%-10s p50=%-10s p90=%-10s p99=%-10s max=%s\n",
			k, s.Count, format(mean), format(s.Min), format(s.P50), format(s.P90), format(s.P99), format(s.Max))
	}
	return b.String()
}
