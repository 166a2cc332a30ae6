package gmdj

import (
	"fmt"
	"runtime"
	"testing"

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
// tuple bound by key to five of 200k detail rows, one aggregate, serial.
// ns/detail-row is the whole Evaluate over the detail rows it folds.
func BenchmarkFold(b *testing.B) {
	base, detail := foldRels(40000, 200000)
	for _, f := range []agg.Func{agg.CountStar, agg.Count, agg.Sum, agg.Avg, agg.Min} {
		conds := []algebra.GMDJCond{{Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")), Aggs: []agg.Spec{kindSpec(f, "a")}}}
		b.Run(fmt.Sprint(f), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(base, detail, conds, Options{Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(detail.Rows)), "ns/detail-row")
		})
	}
}
