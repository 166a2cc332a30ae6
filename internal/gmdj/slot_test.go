package gmdj

import (
	"fmt"
	"math"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// TestSlotMapPath pins which conditions find their tuple through a slot
// map (Stats.SlotConds) and which keep the hash walk, at degrees 1 and 2,
// each with the answer and matches of the walk over the detail's rows.
func TestSlotMapPath(t *testing.T) {
	detail := passDetail(relation.MaxDict + 100) // R.u past the dictionary bound
	cols := detailColumns(detail)
	keys := func(k func(i int) value.Value) *relation.Relation {
		base := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "B", Name: "id", Type: value.KindInt},
			relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		))
		for i := 0; i < 64; i++ {
			base.Append(relation.Tuple{value.Int(int64(i)), k(i)})
		}
		return base
	}
	dense := keys(func(i int) value.Value { return value.Int(int64(63 - i)) })
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	for _, c := range []struct {
		name    string
		base    *relation.Relation
		theta   expr.Expr
		columns bool
		slot    bool
	}{
		{"dense INT", dense, bind, true, true},
		{"INT, NULL among them", keys(func(i int) value.Value { return []value.Value{value.Null, value.Int(int64(i))}[min(i, 1)] }), bind, true, true},
		{"INT spanning 4|B|", keys(func(i int) value.Value { return value.Int(int64(i * 255 / 63)) }), bind, true, true},
		{"INT spanning more", keys(func(i int) value.Value { return value.Int(int64(i * 256 / 63)) }), bind, true, false},
		{"INT at the int64 ends", keys(func(i int) value.Value {
			return value.Int([]int64{math.MinInt64 + int64(i), math.MaxInt64 - int64(i)}[i%2])
		}), bind, true, false},
		{"duplicate INT", keys(func(i int) value.Value { return value.Int(int64(i % 20)) }), bind, true, false},
		{"FLOAT", keys(func(i int) value.Value { return value.Float(float64(i)) }), bind, true, false},
		{"INT and FLOAT", keys(func(i int) value.Value { return []value.Value{value.Int(int64(i)), value.Float(float64(i))}[i%2] }), bind, true, false},
		{"INT against a FLOAT vector", dense, expr.Eq(expr.C("B.k"), expr.C("R.f")), true, false},
		{"two columns", dense, expr.NewAnd(bind, expr.Eq(expr.C("B.id"), expr.C("R.v"))), true, false},
		{"detail rows, no vector", dense, bind, false, false},
		{"STRING against a coded vector", keys(func(i int) value.Value { return value.Str([]string{"a", "b", "c", fmt.Sprint(i)}[min(i, 3)]) }), expr.Eq(expr.C("B.k"), expr.C("R.s")), true, true},
		{"duplicate STRING", keys(func(i int) value.Value { return value.Str([]string{"a", "b", "c"}[i%3]) }), expr.Eq(expr.C("B.k"), expr.C("R.s")), true, false},
		{"STRING against a plain vector", keys(func(i int) value.Value { return value.Str(fmt.Sprintf("u%05d", i*67)) }), expr.Eq(expr.C("B.k"), expr.C("R.u")), true, false},
	} {
		conds := []algebra.GMDJCond{{Theta: c.theta, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}}}
		var walk Stats
		want, err := Evaluate(c.base, detail, conds, Options{Stats: &walk})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			var stats Stats
			opts := Options{Workers: workers, Stats: &stats}
			if c.columns {
				opts.Columns = func(col int) *relation.ColVec { return cols[col] }
			}
			got, err := Evaluate(c.base, detail, conds, opts)
			switch {
			case err != nil:
				t.Fatalf("%s, workers=%d: %v", c.name, workers, err)
			case (stats.SlotConds == 1) != c.slot || stats.SlotConds+stats.PackedHashConds != 1 && c.columns:
				t.Errorf("%s, workers=%d: SlotConds %d, PackedHashConds %d; want a slot map: %v", c.name, workers, stats.SlotConds, stats.PackedHashConds, c.slot)
			case want.Diff(got) != "" || stats.Matches != walk.Matches:
				t.Errorf("%s, workers=%d: %d matches, want %d: %s", c.name, workers, stats.Matches, walk.Matches, want.Diff(got))
			}
		}
	}
}
