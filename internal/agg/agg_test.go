package agg

import (
	"testing"
	"testing/quick"

	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func oneColSchema() *relation.Schema {
	return relation.NewSchema(relation.Column{Qualifier: "R", Name: "x", Type: value.KindInt})
}

func boundSpec(t *testing.T, f Func) Spec {
	t.Helper()
	s := Spec{Func: f, As: "out"}
	if f != CountStar {
		s.Arg = expr.C("R.x")
	}
	b, err := s.Bind(oneColSchema())
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return b
}

// acc is one spec's state at one position, the shape of Native's scalar
// aggregate.
type acc struct{ *State }

func newAcc(s Spec) acc                    { return acc{New([]Spec{s}, 1)} }
func (a acc) Add(row relation.Tuple) error { return a.State.Add(0, 0, row) }
func (a acc) Result() value.Value          { return a.State.Result(0, 0) }

func feed(t *testing.T, a acc, vals ...value.Value) {
	t.Helper()
	for _, v := range vals {
		if err := a.Add(relation.Tuple{v}); err != nil {
			t.Fatalf("Add(%v): %v", v, err)
		}
	}
}

func TestCountStar(t *testing.T) {
	a := newAcc(boundSpec(t, CountStar))
	feed(t, a, value.Int(1), value.Null, value.Int(3))
	if got := a.Result(); got.AsInt() != 3 {
		t.Errorf("count(*) = %v, want 3 (NULL rows still count)", got)
	}
}

func TestCountIgnoresNull(t *testing.T) {
	a := newAcc(boundSpec(t, Count))
	feed(t, a, value.Int(1), value.Null, value.Int(3), value.Null)
	if got := a.Result(); got.AsInt() != 2 {
		t.Errorf("count(x) = %v, want 2", got)
	}
}

func TestCountEmptyIsZero(t *testing.T) {
	for _, f := range []Func{CountStar, Count} {
		a := newAcc(boundSpec(t, f))
		if got := a.Result(); got.AsInt() != 0 {
			t.Errorf("%s over empty = %v, want 0", f, got)
		}
	}
}

func TestSumIntStaysInt(t *testing.T) {
	a := newAcc(boundSpec(t, Sum))
	feed(t, a, value.Int(2), value.Int(3), value.Null)
	got := a.Result()
	if got.Kind() != value.KindInt || got.AsInt() != 5 {
		t.Errorf("sum = %v (%v), want INT 5", got, got.Kind())
	}
}

func TestSumMixedWidens(t *testing.T) {
	a := newAcc(boundSpec(t, Sum))
	feed(t, a, value.Int(2), value.Float(0.5))
	got := a.Result()
	if got.Kind() != value.KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("sum = %v (%v), want FLOAT 2.5", got, got.Kind())
	}
}

func TestEmptyAggregatesAreNull(t *testing.T) {
	// The paper's footnote 2: max of nothing is NULL, which is why
	// ALL cannot be reduced to MAX. Same for sum/avg/min.
	for _, f := range []Func{Sum, Avg, Min, Max} {
		a := newAcc(boundSpec(t, f))
		if got := a.Result(); !got.IsNull() {
			t.Errorf("%s over empty bag = %v, want NULL", f, got)
		}
		// All-NULL input behaves like empty.
		a = newAcc(boundSpec(t, f))
		feed(t, a, value.Null, value.Null)
		if got := a.Result(); !got.IsNull() {
			t.Errorf("%s over all-NULL = %v, want NULL", f, got)
		}
	}
}

func TestAvg(t *testing.T) {
	a := newAcc(boundSpec(t, Avg))
	feed(t, a, value.Int(1), value.Int(2), value.Null, value.Int(6))
	if got := a.Result(); got.AsFloat() != 3.0 {
		t.Errorf("avg = %v, want 3.0", got)
	}
}

func TestMinMax(t *testing.T) {
	mn := newAcc(boundSpec(t, Min))
	mx := newAcc(boundSpec(t, Max))
	for _, v := range []value.Value{value.Int(4), value.Null, value.Int(-2), value.Int(9)} {
		feed(t, mn, v)
		feed(t, mx, v)
	}
	if mn.Result().AsInt() != -2 {
		t.Errorf("min = %v", mn.Result())
	}
	if mx.Result().AsInt() != 9 {
		t.Errorf("max = %v", mx.Result())
	}
}

func TestMinMaxStrings(t *testing.T) {
	s := relation.NewSchema(relation.Column{Qualifier: "R", Name: "x", Type: value.KindString})
	spec, err := Spec{Func: Max, Arg: expr.C("R.x"), As: "m"}.Bind(s)
	if err != nil {
		t.Fatal(err)
	}
	a := newAcc(spec)
	feed(t, a, value.Str("pear"), value.Str("apple"), value.Str("zig"))
	if a.Result().AsString() != "zig" {
		t.Errorf("max = %v", a.Result())
	}
}

func TestTypeErrors(t *testing.T) {
	s := relation.NewSchema(relation.Column{Qualifier: "R", Name: "x", Type: value.KindString})
	for _, f := range []Func{Sum, Avg} {
		spec, err := Spec{Func: f, Arg: expr.C("R.x"), As: "m"}.Bind(s)
		if err != nil {
			t.Fatal(err)
		}
		a := newAcc(spec)
		if err := a.Add(relation.Tuple{value.Str("no")}); err == nil {
			t.Errorf("%s over string should error", f)
		}
	}
}

func TestMixedKindExtremeErrors(t *testing.T) {
	a := newAcc(boundSpec(t, Max))
	feed(t, a, value.Int(1))
	if err := a.Add(relation.Tuple{value.Str("x")}); err == nil {
		t.Error("max over mixed kinds should error")
	}
}

func TestSpecBindValidation(t *testing.T) {
	if _, err := (Spec{Func: Sum, As: "s"}).Bind(oneColSchema()); err == nil {
		t.Error("sum without argument should fail to bind")
	}
	if _, err := (Spec{Func: Count, Arg: expr.C("R.missing")}).Bind(oneColSchema()); err == nil {
		t.Error("binding unknown column should fail")
	}
	if _, err := (Spec{Func: CountStar}).Bind(oneColSchema()); err != nil {
		t.Errorf("count(*) bind: %v", err)
	}
}

func TestSpecString(t *testing.T) {
	s := Spec{Func: Sum, Arg: expr.C("F.NumBytes"), As: "sum1"}
	if s.String() != "sum(F.NumBytes) -> sum1" {
		t.Errorf("String() = %q", s.String())
	}
	cs := Spec{Func: CountStar, As: "cnt"}
	if cs.String() != "count(*) -> cnt" {
		t.Errorf("String() = %q", cs.String())
	}
}

func TestFuncResultType(t *testing.T) {
	if CountStar.ResultType(value.KindString) != value.KindInt {
		t.Error("count type")
	}
	if Sum.ResultType(value.KindFloat) != value.KindFloat {
		t.Error("sum float type")
	}
	if Sum.ResultType(value.KindInt) != value.KindInt {
		t.Error("sum int type")
	}
	if Avg.ResultType(value.KindInt) != value.KindFloat {
		t.Error("avg type")
	}
	if Min.ResultType(value.KindString) != value.KindString {
		t.Error("min type")
	}
}

func TestOutputSchemaNaming(t *testing.T) {
	specs := []Spec{
		{Func: Sum, Arg: expr.C("F.NumBytes"), As: "sum1"},
		{Func: CountStar},
		{Func: Max, Arg: expr.C("F.X")},
	}
	cols := OutputSchema(specs, "Flow")
	if cols[0].Name != "sum1" {
		t.Errorf("col0 = %q", cols[0].Name)
	}
	if cols[1].Name != "count_Flow" {
		t.Errorf("col1 = %q", cols[1].Name)
	}
	if cols[2].Name != "max_Flow_F_X" {
		t.Errorf("col2 = %q", cols[2].Name)
	}
}

// Property: sum/count/avg over random int slices agree with direct
// computation.
func TestAccumulatorProperty(t *testing.T) {
	f := func(raw []int64) bool {
		xs := make([]int64, len(raw))
		for i, x := range raw {
			xs[i] = x % 1000 // keep sums exact in both int64 and float64
		}
		sum := newAcc(boundSpec(t, Sum))
		cnt := newAcc(boundSpec(t, Count))
		avg := newAcc(boundSpec(t, Avg))
		var want int64
		for _, x := range xs {
			row := relation.Tuple{value.Int(x)}
			if sum.Add(row) != nil || cnt.Add(row) != nil || avg.Add(row) != nil {
				return false
			}
			want += x
		}
		if len(xs) == 0 {
			return sum.Result().IsNull() && cnt.Result().AsInt() == 0 && avg.Result().IsNull()
		}
		if sum.Result().AsInt() != want || cnt.Result().AsInt() != int64(len(xs)) {
			return false
		}
		return avg.Result().AsFloat() == float64(want)/float64(len(xs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
