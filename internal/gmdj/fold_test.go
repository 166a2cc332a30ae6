package gmdj

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// aggKinds is every aggregate function, COUNT(*) first.
var aggKinds = []agg.Func{agg.CountStar, agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.Var, agg.StdDev, agg.CountDistinct}

// foldRels is a base B(k, y) of nBase tuples and a detail R(k, x) of
// nDetail rows, detail row i carrying key i % nBase.
func foldRels(nBase, nDetail int) (*relation.Relation, *relation.Relation) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "B", Name: "y", Type: value.KindInt},
	))
	for i := 0; i < nBase; i++ {
		base.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 97))})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "x", Type: value.KindInt},
	))
	for i := 0; i < nDetail; i++ {
		detail.Append(relation.Tuple{value.Int(int64(i % nBase)), value.Int(int64(i % 1009))})
	}
	return base, detail
}

func kindSpec(f agg.Func, as string) agg.Spec {
	if f == agg.CountStar {
		return agg.Spec{Func: f, As: as}
	}
	return agg.Spec{Func: f, Arg: expr.C("R.x"), As: as}
}

// TestEstimateBoundsState: estimateStateBytes, the admission charge, is
// at least what one partition's result, hash index and state allocate,
// for every aggregate kind, with an indexed and a fallback condition.
func TestEstimateBoundsState(t *testing.T) {
	const n = 8192
	base, detail := foldRels(n, 16)
	part := partition{rows: base.Rows}
	for _, f := range aggKinds {
		conds := []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")), Aggs: []agg.Spec{kindSpec(f, "a")}},
			{Theta: expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x")), Aggs: []agg.Spec{kindSpec(f, "b")}},
		}
		p, err := compile(base, detail, conds, Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := p.newResult(n)
		s, err := p.newState(&part, 0, n, res)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(s)
		got, est := int64(after.TotalAlloc-before.TotalAlloc), estimateStateBytes(base, conds, nil)
		if est < got {
			t.Errorf("%s: estimate %d B < %d B allocated (%.1f B a tuple)", f, est, got, float64(got)/n)
		}
	}
}

// BenchmarkFold is the GMDJ's fold per aggregate kind: a 40k base, each
// tuple bound by key to five of 200k detail rows, one aggregate, serial,
// over the detail's rows and over its typed columns (Options.Columns) —
// a slot map's fold (typed/) and, over a base whose keys each two tuples
// hold, the hash walk's (walk/). Then Fig 4's two conditions under ALL's
// completion over the base shuffled, ne_all's key with a <> residual and
// gt_all's <= beside it: their residual reads the base's cells from its
// rows (rows/) or its typed columns (base-cols/, Options.BaseColumns).
// ns/detail-row is the whole Evaluate over the detail rows it folds;
// net-ns/detail-row leaves out what the same case costs over a one-row
// detail, the state build and the emit of the 40k base, which no detail
// row pays: the median of five timed batches, as one batch swings by a
// third. Fig 4's net-ns/probe times the fold's scan alone, its state
// built with the timer stopped, over the probes it makes.
func BenchmarkFold(b *testing.B) {
	base, detail := foldRels(40000, 200000)
	_, one := foldRels(40000, 1)
	cols, oneCols := detailColumns(detail), detailColumns(one)
	dup, _ := foldRels(40000, 0)
	for i, row := range dup.Rows {
		row[0] = value.Int(int64(i / 2 * 2)) // keys 0, 0, 2, 2, ...: each on five rows
	}
	// fold times b0's fold over detail under opts, less the one-row
	// detail's under oneOpts, per detail row.
	fold := func(name string, b0 *relation.Relation, conds []algebra.GMDJCond, opts, oneOpts Options) {
		b.Run(name, func(b *testing.B) {
			var batches [5]float64
			for k := range batches {
				start := time.Now()
				for i := 0; i < 3; i++ {
					if _, err := Evaluate(b0, one, conds, oneOpts); err != nil {
						b.Fatal(err)
					}
				}
				batches[k] = float64(time.Since(start).Nanoseconds()) / 3
			}
			slices.Sort(batches[:])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(b0, detail, conds, opts); err != nil {
					b.Fatal(err)
				}
			}
			op := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(op/float64(len(detail.Rows)), "ns/detail-row")
			b.ReportMetric((op-batches[len(batches)/2])/float64(len(detail.Rows)), "net-ns/detail-row")
		})
	}
	typed := func(c int) *relation.ColVec { return cols[c] }
	oneTyped := func(c int) *relation.ColVec { return oneCols[c] }
	for _, f := range []agg.Func{agg.CountStar, agg.Count, agg.Sum, agg.Avg, agg.Min} {
		conds := []algebra.GMDJCond{{Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")), Aggs: []agg.Spec{kindSpec(f, "a")}}}
		for _, path := range []string{"rows/", "typed/", "walk/"} {
			opts, oneOpts, b0 := Options{Workers: 1}, Options{Workers: 1}, base
			if path != "rows/" {
				opts.Columns, oneOpts.Columns = typed, oneTyped
			}
			if path == "walk/" {
				b0 = dup
			}
			fold(path+f.String(), b0, conds, opts, oneOpts)
		}
	}
	shuffled := relation.New(base.Schema)
	for _, i := range rand.New(rand.NewSource(1)).Perm(len(base.Rows)) {
		shuffled.Append(base.Rows[i])
	}
	baseCols := detailColumns(shuffled)
	ne := expr.NewCmp(value.NE, expr.C("R.k"), expr.C("B.k"))
	comp := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}
	for _, sh := range []struct {
		name  string
		first expr.Expr
	}{
		{"ne_all", expr.Eq(expr.C("B.y"), expr.C("R.x"))},
		{"gt_all", expr.NewCmp(value.LE, expr.C("B.y"), expr.C("R.x"))},
	} {
		conds := []algebra.GMDJCond{{Theta: expr.NewAnd(ne, sh.first), Aggs: []agg.Spec{kindSpec(agg.CountStar, "c")}}}
		for _, path := range []string{"rows/", "base-cols/"} {
			opts := Options{Workers: 1, Completion: comp, Columns: typed}
			if path == "base-cols/" {
				opts.BaseColumns = func(c int) *relation.ColVec { return baseCols[c] }
			}
			b.Run(path+sh.name, func(b *testing.B) {
				var probes int64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					p, err := compile(shuffled, detail, conds, opts, 0)
					if err == nil {
						err = p.detailPass()
					}
					var st *state
					if err == nil {
						st, err = p.newState(&partition{rows: shuffled.Rows}, 0, len(shuffled.Rows), p.newResult(len(shuffled.Rows)))
					}
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if err := p.scan(0, st, new(atomic.Bool)); err != nil {
						b.Fatal(err)
					}
					probes += st.stats.Probes
				}
				b.ReportMetric(float64(probes)/float64(b.N), "probes/op")
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(probes), "net-ns/probe")
			})
		}
	}
}

// TestColumnFoldEligibility pins which conditions take the typed fold
// (DESIGN §14): hash-bound on unboxed key vectors, no mixed conjunct, no
// completion atom, every aggregate a COUNT(*) or over a bare column with a
// vector. Either way the answer, the counters and an error — a SUM over a
// STRING column — are the row path's.
func TestColumnFoldEligibility(t *testing.T) {
	base, _ := foldRels(8, 0)
	detail := passDetail(64)
	cols := detailColumns(detail)
	boxed := &relation.ColVec{Nulls: make([]bool, detail.Len()), Boxed: make([]value.Value, detail.Len())}
	for i, row := range detail.Rows {
		boxed.Nulls[i], boxed.Boxed[i] = row[0].IsNull(), row[0]
	}
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	on := func(f agg.Func, arg expr.Expr) []agg.Spec { return []agg.Spec{{Func: f, Arg: arg, As: "a"}} }
	frozen := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}}, Tree: algebra.Leaf(0), FreezeTrue: true}
	for _, c := range []struct {
		name    string
		cond    algebra.GMDJCond
		comp    *algebra.CompletionInfo
		boxKey  bool
		typed   bool
		wantErr bool
	}{
		{"count(*)", algebra.GMDJCond{Theta: bind, Aggs: on(agg.CountStar, nil)}, nil, false, true, false},
		{"every kind over columns", algebra.GMDJCond{Theta: bind, Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
			{Func: agg.Avg, Arg: expr.C("R.f"), As: "a"}, {Func: agg.Min, Arg: expr.C("R.tag"), As: "m"},
			{Func: agg.CountDistinct, Arg: expr.C("R.v"), As: "d"}, {Func: agg.Var, Arg: expr.C("R.g"), As: "var"}}}, nil, false, true, false},
		{"detail-only and base-only conjuncts", algebra.GMDJCond{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("odd")),
			expr.NewCmp(value.GT, expr.C("B.y"), expr.IntLit(3))), Aggs: on(agg.Sum, expr.C("R.f"))}, nil, false, true, false},
		{"mixed conjunct", algebra.GMDJCond{Theta: expr.NewAnd(bind, expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.v"))), Aggs: on(agg.CountStar, nil)}, nil, false, false, false},
		{"computed argument", algebra.GMDJCond{Theta: bind, Aggs: on(agg.Sum, expr.NewArith(expr.OpAdd, expr.C("R.v"), expr.IntLit(1)))}, nil, false, false, false},
		{"argument reads the base", algebra.GMDJCond{Theta: bind, Aggs: on(agg.Sum, expr.C("B.y"))}, nil, false, false, false},
		{"completion atom", algebra.GMDJCond{Theta: bind, Aggs: on(agg.CountStar, nil)}, frozen, false, false, false},
		{"boxed key", algebra.GMDJCond{Theta: bind, Aggs: on(agg.CountStar, nil)}, nil, true, false, false},
		{"fallback", algebra.GMDJCond{Theta: expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), Aggs: on(agg.CountStar, nil)}, nil, false, false, false},
		{"sum over STRING", algebra.GMDJCond{Theta: bind, Aggs: on(agg.Sum, expr.C("R.tag"))}, nil, false, true, true},
	} {
		columns := func(col int) *relation.ColVec {
			if col == 0 && c.boxKey {
				return boxed
			}
			return cols[col]
		}
		conds := []algebra.GMDJCond{c.cond}
		p, err := compile(base, detail, conds, Options{Completion: c.comp, Columns: columns}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if p.conds[0].typed != c.typed {
			t.Errorf("%s: typed = %v, want %v", c.name, p.conds[0].typed, c.typed)
		}
		var offStats, onStats Stats
		off, offErr := Evaluate(base, detail, conds, Options{Completion: c.comp, Stats: &offStats})
		got, onErr := Evaluate(base, detail, conds, Options{Completion: c.comp, Stats: &onStats, Columns: columns})
		switch {
		case (offErr != nil) != c.wantErr || fmt.Sprint(offErr) != fmt.Sprint(onErr):
			t.Errorf("%s: error %v with columns off, %v on; want an error: %v", c.name, offErr, onErr, c.wantErr)
		case offErr == nil && goldenLine("", off, &offStats) != goldenLine("", got, &onStats):
			t.Errorf("%s: columns on and off differ: %s", c.name, off.Diff(got))
		}
	}
}
