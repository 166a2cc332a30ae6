package exec

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/gmdj"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// foldSpecs is every aggregate kind over T's untyped x, and MIN/MAX over
// its strings s.
func foldSpecs() []agg.Spec {
	specs := []agg.Spec{{Func: agg.CountStar, As: "a0"}}
	for _, f := range []agg.Func{agg.Count, agg.Sum, agg.Avg, agg.Min, agg.Max, agg.Var, agg.StdDev, agg.CountDistinct} {
		specs = append(specs, agg.Spec{Func: f, Arg: expr.C("T.x"), As: fmt.Sprintf("a%d", len(specs))})
	}
	for _, f := range []agg.Func{agg.Min, agg.Max} {
		specs = append(specs, agg.Spec{Func: f, Arg: expr.C("T.s"), As: fmt.Sprintf("a%d", len(specs))})
	}
	return specs
}

// foldCatalog holds the detail T(k, x, s) — 9 000 rows over keys 0..299,
// two morsels and more, so a degree-4 equi-bound GMDJ routes it — and
// the base B(k) over keys 0..319, the last twenty with no detail row.
// A key's class (k % 6) picks what its x cells are: NULL only, INT,
// FLOAT, an INT/FLOAT mix, FLOATs with NaN and ±0, or a mix with NULLs.
func foldCatalog() *storage.Catalog {
	rng := rand.New(rand.NewSource(36))
	t := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "T", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "T", Name: "x"}, // untyped: INT and FLOAT side by side
		relation.Column{Qualifier: "T", Name: "s", Type: value.KindString},
	))
	for i := 0; i < 9000; i++ {
		k := rng.Intn(300)
		x := value.Null
		switch f := rng.NormFloat64() * 1e3; k % 6 {
		case 1:
			x = value.Int(int64(f))
		case 2:
			x = value.Float(f)
		case 3, 5:
			if x = value.Int(int64(f)); i%2 == 0 {
				x = value.Float(f / 7)
			}
			if k%6 == 5 && i%3 == 0 {
				x = value.Null
			}
		case 4:
			x = []value.Value{value.Float(f), value.Float(math.NaN()), value.Float(0), value.Float(math.Copysign(0, -1))}[rng.Intn(4)]
		}
		s := value.Null
		if k%6 != 0 && rng.Intn(4) > 0 {
			s = value.Str(string(rune('a' + rng.Intn(26))))
		}
		t.Append(relation.Tuple{value.Int(int64(k)), x, s})
	}
	b := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	for k := 0; k < 320; k++ {
		b.Append(relation.Tuple{value.Int(int64(k))})
	}
	cat := storage.NewCatalog()
	cat.Register(storage.NewTable("T", t))
	cat.Register(storage.NewTable("B", b))
	return cat
}

// same reports whether two cells are one bit for bit: kind and every
// payload bit (a float sum's rounding, a NaN, -0.0).
func same(a, b value.Value) bool {
	return bytes.Equal(value.AppendBinary(nil, a), value.AppendBinary(nil, b))
}

// TestFoldEquivalence: one fold serves the GMDJ, GROUP BY and Native's
// scalar aggregate. For every aggregate kind — over NULL-only inputs
// (NULL for SUM, AVG, MIN and MAX, 0 for the counts), INT/FLOAT mixes,
// MIN/MAX over strings and NaN — the GMDJ gives GROUP BY's cells bit for
// bit (float sums too) at degree 1 and 4, resident (a band θ, sharded by
// base range), routed (B.k = T.k) and memory-partitioned (both θs under
// an 8 KiB pool), and Native's scalar aggregate equals them.
func TestFoldEquivalence(t *testing.T) {
	cat, specs := foldCatalog(), foldSpecs()
	e := New(cat)
	grouped := run(t, e, algebra.NewGroupBy(algebra.NewScan("T", ""), []*expr.Col{expr.C("T.k")}, specs))
	empty := agg.New(specs, 1) // the empty bag's cells, for keys without rows
	want := map[int64]relation.Tuple{}
	for _, row := range grouped.Rows {
		want[row[0].AsInt()] = row[1:]
		if row[0].AsInt()%6 != 0 {
			continue
		}
		for j, cell := range row[2:] { // NULL-only x and s: the counts give 0, the rest NULL
			spec := specs[j+1]
			isCount := spec.Func == agg.Count || spec.Func == agg.CountDistinct
			if isCount && !same(cell, value.Int(0)) || !isCount && !cell.IsNull() {
				t.Errorf("k=%v: %s over NULLs = %v", row[0], spec, cell)
			}
		}
	}
	base, _ := cat.Table("B")
	detail, _ := cat.Table("T")
	thetas := map[string]expr.Expr{
		"equi": expr.Eq(expr.C("B.k"), expr.C("T.k")),
		"band": expr.NewAnd(expr.NewCmp(value.LE, expr.C("B.k"), expr.C("T.k")), expr.NewCmp(value.GE, expr.C("B.k"), expr.C("T.k"))),
	}
	for name, theta := range thetas {
		for _, workers := range []int{1, 4} {
			for _, limit := range []int64{0, 8 << 10} {
				opts := gmdj.Options{Workers: workers, Stats: new(gmdj.Stats)}
				if limit > 0 {
					res, err := mem.NewPool(limit, time.Second).Acquire(context.Background(), mem.DefaultQueryReserve)
					if err != nil {
						t.Fatal(err)
					}
					defer res.Release()
					if opts.Spill, err = spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil); err != nil {
						t.Fatal(err)
					}
					opts.Mem = res.Tracker("gmdj")
				}
				out, err := gmdj.Evaluate(base.Rel, detail.Rel, []algebra.GMDJCond{{Theta: theta, Aggs: specs}}, opts)
				if err != nil {
					t.Fatal(err)
				}
				regime := fmt.Sprintf("%s degree %d limit %d", name, workers, limit)
				if out.Len() != base.Rel.Len() {
					t.Fatalf("%s: %d rows, want %d", regime, out.Len(), base.Rel.Len())
				}
				if limit > 0 && opts.Stats.SpillPartitions == 0 {
					t.Errorf("%s: not partitioned", regime)
				}
				if routed := name == "equi" && workers > 1 && limit == 0; routed && opts.Stats.DetailPassWorkers == 0 {
					t.Errorf("%s: not routed", regime)
				}
				for _, row := range out.Rows {
					k := row[0].AsInt()
					for j := range specs {
						w, ok := want[k]
						cell := empty.Result(j, 0)
						if ok {
							cell = w[j]
						}
						if !same(row[1+j], cell) {
							t.Errorf("%s: k=%d %s = %v, GROUP BY %v", regime, k, specs[j], row[1+j], cell)
						}
					}
				}
			}
		}
	}
	// Native: W(k, want) holds the GMDJ's cell for 24 keys (twelve
	// without rows, two of each class with); want = (SELECT f(..) FROM T WHERE T.k = W.k) keeps exactly
	// the non-NULL ones.
	for j, spec := range specs {
		w := relation.New(relation.NewSchema(relation.Column{Qualifier: "W", Name: "k", Type: value.KindInt}, relation.Column{Qualifier: "W", Name: "want"}))
		nonNull := 0
		for k := int64(288); k < 312; k++ {
			cell := empty.Result(j, 0)
			if row, ok := want[k]; ok {
				cell = row[j]
			}
			if !cell.IsNull() {
				nonNull++
			}
			w.Append(relation.Tuple{value.Int(k), cell})
		}
		cat.Register(storage.NewTable("W", w))
		spec := spec
		sub := &algebra.Subquery{
			Source: algebra.NewScan("T", ""),
			Where:  &algebra.Atom{E: expr.Eq(expr.C("T.k"), expr.C("W.k"))},
			Agg:    &spec,
		}
		out := run(t, e, algebra.NewRestrict(algebra.NewScan("W", ""),
			&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.EQ, Left: expr.C("W.want"), Sub: sub}))
		if out.Len() != nonNull {
			t.Errorf("native %s: %d of 24 keys equal the GMDJ's cell, want %d", spec, out.Len(), nonNull)
		}
	}
}
