package gmdj

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// TestRouteAllocsFlat: what a routed Evaluate at degree 2 allocates does
// not grow with the detail — the pass's hash vector, its predicate
// outcomes and its route list come back from their pools — neither in
// allocations nor in bytes (under one byte a detail row; the three
// vectors take fourteen).
func TestRouteAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled vectors")
	}
	// A collection empties the pools, and so does a change of GOMAXPROCS
	// (AllocsPerRun sets 1); a goroutine that moved to another P misses
	// what it put in the last one's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base, _ := packedCorpus()
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("R.k"), expr.C("B.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "sv"}},
	}}
	measure := func(n int) (allocs float64, bytes uint64) {
		detail := passDetail(n)
		run := func() {
			var stats Stats
			if _, err := Evaluate(base, detail, conds, Options{Workers: 2, Stats: &stats}); err != nil || len(stats.WorkerRows) != 2 {
				t.Fatalf("Evaluate: %v, WorkerRows %v; want a fold of two key partitions", err, stats.WorkerRows)
			}
		}
		allocs = testing.AllocsPerRun(10, run) // fills the pools first
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return allocs, (after.TotalAlloc - before.TotalAlloc) / 10
	}
	const small, large = 2*govern.MorselRows + 1, 16*govern.MorselRows + 1
	sa, sb := measure(small)
	la, lb := measure(large)
	if la > sa || lb > sb+large-small {
		t.Errorf("%v allocations, %d bytes over %d detail rows; %v, %d over %d: the pass allocates per detail row", la, lb, large, sa, sb, small)
	}
}

// TestPassAllocsSmallDetail: a fresh pass buffer holds a worker's
// position lists for the detail's rows, not for a morsel: the serial pass
// over a 300-row detail allocates less than one morsel of positions.
func TestPassAllocsSmallDetail(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled vectors")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	base, _ := packedCorpus()
	detail := passDetail(300)
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("R.k"), expr.C("B.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	var bytes uint64
	for i := 0; i < 10; i++ {
		p, err := compile(base, detail, conds, Options{Workers: 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for bufPool.Get().(*passBuf).pos != nil { // empty the pool: the pass gets a fresh buffer
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = p.detailPass()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes += after.TotalAlloc - before.TotalAlloc
	}
	if morsel := uint64(govern.MorselRows * 4); bytes/10 >= morsel {
		t.Errorf("the pass over %d rows allocates %d B, a morsel of positions is %d B", detail.Len(), bytes/10, morsel)
	}
}

// TestRouteFaultsAndCancellation: a routed fold failing in one key
// partition — an injected error or panic at gmdj.worker, or a cancel
// landing mid-walk — fails the evaluation with that error, stops the
// other partitions within a chunk of rows, and leaves no goroutine
// behind.
func TestRouteFaultsAndCancellation(t *testing.T) {
	base, detail := governData(64, 8*govern.MorselRows)
	count := []agg.Spec{{Func: agg.CountStar, As: "cnt"}}
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	before := runtime.NumGoroutine()
	for fault, want := range map[string]error{"error": govern.ErrInjected, "panic": govern.ErrInternal} {
		var stats Stats
		_, err := Evaluate(base, detail, []algebra.GMDJCond{{Theta: bind, Aggs: count}},
			Options{Workers: 4, Stats: &stats, Faults: govern.NewInjector(map[string]string{"gmdj.worker": fault})})
		if !errors.Is(err, want) || stats.DetailScans != 1 {
			t.Errorf("gmdj.worker=%s: err = %v after %d scans, want %v after the routing pass", fault, err, stats.DetailScans, want)
		}
	}
	// A mixed conjunct, evaluated per match inside a key partition's
	// fold, cancels the query when base key 40 matches.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	var seen atomic.Int64
	at := &cancelAt{col: expr.NewArith(expr.OpAdd, expr.C("B.k"), expr.C("R.k")), at: 80, cancel: cancel, fired: &fired, seen: &seen}
	var stats Stats
	_, err := Evaluate(base, detail, []algebra.GMDJCond{{Theta: expr.NewAnd(bind, at), Aggs: count}},
		Options{Workers: 4, Stats: &stats, Gov: govern.New(ctx, govern.Budget{})})
	if !errors.Is(err, govern.ErrCanceled) || !fired.Load() || stats.DetailScans != 1 {
		t.Fatalf("err = %v (cancel fired: %v, %d scans), want ErrCanceled mid-fold", err, fired.Load(), stats.DetailScans)
	}
	if n := seen.Load(); n >= 4*scanChunk {
		t.Errorf("%d matches evaluated after the cancel, want under a chunk per key partition (%d)", n, 4*scanChunk)
	}
	waitGoroutines(t, before)
}

// TestEmitAllocsFlat: a routed Evaluate allocates as often over 16 384
// base tuples as over 1 024 — the partitions are carved from slabs, the
// index is flat arrays, emit fills one slab of presized output, over the
// detail's rows or its typed columns — and a
// spilled one reads no more than 12 bytes a base row beside its frame
// headers: a position delta and a key hash, never the row. A fused chain
// (Options.Emit) that keeps none, half or all of the large base's rows,
// as one narrow column, allocates as often as the bare emit over the
// small base: each wide row is built in one scratch tuple and only
// survivors are copied, into the one slab.
func TestEmitAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled vectors")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	detail := passDetail(2*govern.MorselRows + 1)
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("R.k"), expr.C("B.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "sv"}},
	}}
	baseOf := func(n int) *relation.Relation {
		base := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
			relation.Column{Qualifier: "B", Name: "name", Type: value.KindString},
		))
		for i := 0; i < n; i++ {
			base.Append(relation.Tuple{value.Int(int64(i % 20)), value.Str(fmt.Sprintf("customer-%05d", i))})
		}
		return base
	}
	cols := detailColumns(detail)
	allocs := func(base *relation.Relation, columns func(int) *relation.ColVec) float64 {
		return testing.AllocsPerRun(10, func() {
			var stats Stats
			if out, err := Evaluate(base, detail, conds, Options{Workers: 2, Stats: &stats, Columns: columns}); err != nil || out.Len() != base.Len() || len(stats.WorkerRows) != 2 {
				t.Fatalf("Evaluate: %v, WorkerRows %v; want every tuple out of a fold of two key partitions", err, stats.WorkerRows)
			}
		})
	}
	small, large := baseOf(1024), baseOf(16384)
	sa, la := allocs(small, nil), allocs(large, nil)
	if la > sa {
		t.Errorf("%v allocations over %d base tuples, %v over %d: the fold or emit allocates per tuple", la, large.Len(), sa, small.Len())
	}
	// Over typed columns the fold is the typed one, its chunk buffers per
	// state and pooled.
	columns := func(c int) *relation.ColVec { return cols[c] }
	if ta, tl := allocs(small, columns), allocs(large, columns); tl > ta {
		t.Errorf("typed fold: %v allocations over %d base tuples, %v over %d: it allocates per tuple", tl, large.Len(), ta, small.Len())
	}
	narrow, scratch := relation.NewSchema(relation.Column{Qualifier: "B", Name: "name", Type: value.KindString}), make(relation.Tuple, 1)
	for _, keep := range []int64{0, 10, 20} { // B.k < keep: none, half, all
		want := 0
		for _, row := range large.Rows {
			if row[0].AsInt() < keep {
				want++
			}
		}
		emit := &Emit{Schema: narrow, Row: func(wide relation.Tuple) (relation.Tuple, error) {
			if wide[0].AsInt() >= keep {
				return nil, nil
			}
			scratch[0] = wide[1]
			return scratch, nil
		}}
		fa := testing.AllocsPerRun(10, func() {
			if out, err := Evaluate(large, detail, conds, Options{Workers: 2, Emit: emit}); err != nil || out.Len() != want {
				t.Fatalf("fused Evaluate: %v, %d rows; want %d", err, out.Len(), want)
			}
		})
		if fa > sa {
			t.Errorf("fused chain keeping B.k < %d of %d base tuples: %v allocations, over the bare emit's %v: emit allocates per tuple or per survivor", keep, large.Len(), fa, sa)
		}
	}
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if _, err := Evaluate(small, detail, conds, Options{Workers: 1, Mem: tr, Spill: store, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if limit := 12*int64(small.Len()) + stats.SpillPartitions*spill.FrameOverhead; stats.SpillPartitions < 2 || stats.SpillBytesRead > limit {
		t.Errorf("%d partitions spilled, %d bytes read back; want >= 2 and at most %d", stats.SpillPartitions, stats.SpillBytesRead, limit)
	}
}
