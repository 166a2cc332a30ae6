package gmdj

import (
	"path/filepath"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// TestLiveBucket: a tuple completion decides leaves its hash bucket
// after the walk that decided it (relation.HashIndex.Retire), so a
// probe visits live tuples only — Probes counts them exactly — and no
// live tuple is skipped. Tuples 0–3 hold key k1 and 4–5 key k2, whose
// hashes share a bucket of the 8-tuple index; the detail retires the
// first and then the last entry of a bucket and the reverse, in one
// condition or in two that share the index, serially, over routed key
// partitions and spilled ones.
func TestLiveBucket(t *testing.T) {
	const k1 = 1
	hash := func(k int64) uint64 { return value.FoldHash(value.HashInit, value.Int(k)) }
	k2 := int64(k1 + 1)
	for ; ; k2++ {
		ix := relation.NewHashIndex(8, func(i int) (uint64, bool) { return hash([]int64{k1, k2}[i/4]), true })
		if len(ix.Bucket(hash(k1))) == 8 {
			break
		}
	}
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "id", Type: value.KindInt},
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i, k := range []int64{k1, k1, k1, k1, k2, k2, -1, -2} {
		base.Append(relation.Tuple{value.Int(int64(i)), value.Int(k)})
	}
	// R(k, lo, hi, lo2, hi2): condition 0 matches ids in [lo, hi], 1 in [lo2, hi2].
	detail := func(rows ...[5]int64) *relation.Relation {
		r := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
			relation.Column{Qualifier: "R", Name: "lo", Type: value.KindInt},
			relation.Column{Qualifier: "R", Name: "hi", Type: value.KindInt},
			relation.Column{Qualifier: "R", Name: "lo2", Type: value.KindInt},
			relation.Column{Qualifier: "R", Name: "hi2", Type: value.KindInt},
		))
		for _, row := range rows {
			r.Append(relation.Tuple{value.Int(row[0]), value.Int(row[1]), value.Int(row[2]), value.Int(row[3]), value.Int(row[4])})
		}
		for r.Len() < 2*govern.MorselRows+1 { // two morsels: a pass routes
			r.Append(relation.Tuple{value.Int(1000), value.Int(0), value.Int(9), value.Int(0), value.Int(9)})
		}
		return r
	}
	in := func(lo, hi string) expr.Expr {
		return expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.GE, expr.C("B.id"), expr.C("R."+lo)), expr.NewCmp(value.LE, expr.C("B.id"), expr.C("R."+hi)))
	}
	one := []algebra.GMDJCond{{Theta: in("lo", "hi"), Aggs: []agg.Spec{{Func: agg.CountStar, As: "c"}}}}
	two := append(one, algebra.GMDJCond{Theta: in("lo2", "hi2"), Aggs: []agg.Spec{{Func: agg.CountStar, As: "c2"}}})
	none := int64(-9) // a bound no id meets
	for _, c := range []struct {
		name   string
		conds  []algebra.GMDJCond
		rows   [][5]int64
		probes int64
	}{
		// 4 live k1 entries, 3, then k2's 2 and 1, then k1's last 2.
		{"first, then last", one, [][5]int64{{k1, 0, 0, none, none}, {k1, 3, 3, none, none}, {k2, 5, 5, none, none}, {k2, 4, 4, none, none}, {k1, 0, 9, none, none}}, 12},
		{"last, then first", one, [][5]int64{{k1, 3, 3, none, none}, {k1, 0, 0, none, none}, {k2, 4, 4, none, none}, {k2, 5, 5, none, none}, {k1, 0, 9, none, none}}, 12},
		// Condition 0 retires, then 1 walks what it left: 4 + 3, 2 + 1,
		// 2 + 0; and 4 + 3, 2 + 1, 2 + 1.
		{"two conditions, one index", two, [][5]int64{{k1, 0, 0, 1, 1}, {k1, 3, 3, 2, 2}, {k2, 4, 5, 0, 9}}, 12},
		{"two conditions, reversed", two, [][5]int64{{k1, 3, 3, 2, 2}, {k1, 0, 0, 1, 1}, {k2, 5, 5, 4, 4}}, 13},
	} {
		comp := &algebra.CompletionInfo{Tree: algebra.AndTree()}
		for ci := range c.conds {
			comp.Atoms = append(comp.Atoms, algebra.CompletionAtom{Cond: ci, Kind: algebra.AtomZero})
			comp.Tree.Kids = append(comp.Tree.Kids, algebra.Leaf(ci))
		}
		r := detail(c.rows...)
		for _, regime := range []string{"serial", "routed", "spilled"} {
			var stats Stats
			opts := Options{Completion: comp, Stats: &stats, Workers: 1}
			if regime != "serial" {
				opts.Workers = 2
			}
			if regime == "spilled" {
				store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
				if err != nil {
					t.Fatal(err)
				}
				tr, release := poolTracker(t, 1<<10) // under the 8 tuples' state: spills
				defer release()
				opts.Mem, opts.Spill = tr, store
			}
			out, err := Evaluate(base, r, c.conds, opts)
			if err != nil {
				t.Fatalf("%s, %s: %v", c.name, regime, err)
			}
			// Every tuple of k1 and k2 is decided; the other two are emitted.
			if got := out.String(); out.Len() != 2 || out.Rows[0][0].AsInt() != 6 || out.Rows[1][0].AsInt() != 7 {
				t.Errorf("%s, %s: emitted %s, want tuples 6 and 7", c.name, regime, got)
			}
			if stats.Probes != c.probes || stats.Matches != 6 || stats.Completed != 6 {
				t.Errorf("%s, %s: probes=%d matches=%d completed=%d, want %d, 6, 6", c.name, regime, stats.Probes, stats.Matches, stats.Completed, c.probes)
			}
			if routed := regime != "serial"; routed != (stats.DetailPassWorkers > 1) || regime == "spilled" && stats.SpillPartitions == 0 {
				t.Errorf("%s, %s: pass workers %d, spill partitions %d", c.name, regime, stats.DetailPassWorkers, stats.SpillPartitions)
			}
		}
	}
}
