package gmdj

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// rangeRel builds a relation qualified q over the named columns; the
// evaluator reads the cells' kinds, so the schema says INT throughout.
func rangeRel(q string, names []string, rows ...relation.Tuple) *relation.Relation {
	cols := make([]relation.Column, len(names))
	for i, n := range names {
		cols[i] = relation.Column{Qualifier: q, Name: n, Type: value.KindInt}
	}
	r := relation.New(relation.NewSchema(cols...))
	for _, row := range rows {
		r.Append(row)
	}
	return r
}

// evalScan evaluates conds with every range-bound condition demoted to
// the whole-list scan: the reference a sorted run's walk must reproduce.
func evalScan(t *testing.T, base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options) *relation.Relation {
	t.Helper()
	p, err := compile(base, detail, conds, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	for ci := range p.conds {
		p.conds[ci].rng = nil
	}
	if err := p.detailPass(); err != nil {
		t.Fatal(err)
	}
	out := p.newResult(len(base.Rows))
	if err := p.evalPartition(out, partition{rows: base.Rows}); err != nil {
		t.Fatal(err)
	}
	rel, err := p.emit(out)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

var (
	nan  = value.Float(math.NaN())
	negZ = value.Float(math.Copysign(0, -1))
)

// TestRangeEdgeCases runs each θ over small tables whose cells sit where
// a sorted run can go wrong, under every φ, with and without completion,
// at one and three fold ranges: the walk returns the whole-list scan's
// answer with no more probes than it.
func TestRangeEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		base   *relation.Relation // B(y, z)
		detail *relation.Relation // R(x, w)
	}{
		{"INT spanning 2^32", rangeRel("B", []string{"y", "z"},
			relation.Tuple{value.Int(-1 << 40), value.Int(3)}, relation.Tuple{value.Int(5), value.Int(1 << 33)},
			relation.Tuple{value.Int(1 << 33), value.Int(-7)}, relation.Tuple{value.Null, value.Int(0)},
			relation.Tuple{value.Int(5), value.Null}, relation.Tuple{value.Int(math.MaxInt64), value.Int(math.MinInt64)},
			relation.Tuple{value.Int(math.MinInt64), value.Int(1 << 62)}, relation.Tuple{value.Int(0), value.Int(5)}),
			rangeRel("R", []string{"x", "w"},
				relation.Tuple{value.Int(5), value.Int(4)}, relation.Tuple{value.Int(1 << 33), value.Int(-1 << 40)},
				relation.Tuple{value.Null, value.Int(0)}, relation.Tuple{value.Int(-1 << 40), value.Null},
				relation.Tuple{value.Float(5), value.Float(2.5)}, relation.Tuple{nan, value.Int(math.MaxInt64)},
				relation.Tuple{value.Int(0), value.Int(0)})},
		{"FLOAT with NaN and -0.0", rangeRel("B", []string{"y", "z"},
			relation.Tuple{nan, value.Float(1)}, relation.Tuple{negZ, nan}, relation.Tuple{value.Float(0), value.Float(-1)},
			relation.Tuple{value.Float(1.5), negZ}, relation.Tuple{value.Float(math.Inf(-1)), value.Float(math.Inf(1))},
			relation.Tuple{value.Float(math.Inf(1)), value.Null}, relation.Tuple{value.Null, value.Float(2)},
			relation.Tuple{nan, nan}, relation.Tuple{value.Float(-2), value.Float(0)}),
			rangeRel("R", []string{"x", "w"},
				relation.Tuple{value.Float(0), negZ}, relation.Tuple{negZ, value.Float(0)}, relation.Tuple{nan, value.Float(1)},
				relation.Tuple{value.Null, nan}, relation.Tuple{value.Float(1.5), value.Float(-2)}, relation.Tuple{value.Int(0), value.Int(1)},
				relation.Tuple{value.Float(math.Inf(1)), value.Null}, relation.Tuple{value.Float(-1), value.Float(math.Inf(-1))})},
		{"STRING, incomparable detail values", rangeRel("B", []string{"y", "z"},
			relation.Tuple{value.Str("b"), value.Str("q")}, relation.Tuple{value.Str("a"), value.Null},
			relation.Tuple{value.Null, value.Str("a")}, relation.Tuple{value.Str("aa"), value.Str("z")},
			relation.Tuple{value.Str("c"), value.Str("")}, relation.Tuple{value.Str(""), value.Str("b")}),
			rangeRel("R", []string{"x", "w"},
				relation.Tuple{value.Str("aa"), value.Str("b")}, relation.Tuple{value.Int(1), value.Str("c")},
				relation.Tuple{value.Str("b"), value.Int(2)}, relation.Tuple{value.Null, value.Str("a")},
				relation.Tuple{value.Str("zz"), value.Str("")})},
		{"mixed kinds stay unsorted", rangeRel("B", []string{"y", "z"},
			relation.Tuple{value.Int(1), value.Int(2)}, relation.Tuple{value.Float(2.5), value.Str("s")},
			relation.Tuple{value.Str("x"), value.Int(0)}, relation.Tuple{value.Int(0), value.Float(1)}),
			rangeRel("R", []string{"x", "w"},
				relation.Tuple{value.Int(1), value.Int(1)}, relation.Tuple{value.Str("y"), value.Float(0.5)},
				relation.Tuple{value.Float(2), value.Int(3)})},
		{"empty list", rangeRel("B", []string{"y", "z"},
			relation.Tuple{value.Null, value.Int(1)}, relation.Tuple{value.Null, value.Null}),
			rangeRel("R", []string{"x", "w"}, relation.Tuple{value.Int(1), value.Int(0)})},
	}
	// Per φ: one-sided, written both ways round; a band on y; a stab
	// column z bounded by the same detail column as y, and by another.
	var thetas []expr.Expr
	for _, op := range []value.CmpOp{value.LT, value.LE, value.GT, value.GE} {
		y, neg := expr.NewCmp(op, expr.C("B.y"), expr.C("R.x")), op.Negate()
		thetas = append(thetas, y, expr.NewCmp(op, expr.C("R.x"), expr.C("B.y")),
			expr.NewAnd(y, expr.NewCmp(neg, expr.C("B.y"), expr.C("R.w"))),
			expr.NewAnd(y, expr.NewCmp(neg, expr.C("B.z"), expr.C("R.x"))),
			expr.NewAnd(y, expr.NewCmp(neg, expr.C("B.z"), expr.C("R.w"))))
	}
	completions := []*algebra.CompletionInfo{
		nil,
		{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)},
		{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}}, Tree: algebra.Leaf(0), FreezeTrue: true},
	}
	aggs := []agg.Spec{{Func: agg.CountStar, As: "cnt"}}
	for _, c := range cases {
		for _, theta := range thetas {
			conds := []algebra.GMDJCond{{Theta: theta, Aggs: aggs}}
			for ci, comp := range completions {
				for _, workers := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/completion %d/workers %d", c.name, theta, ci, workers)
					var scan, walk Stats
					want := evalScan(t, c.base, c.detail, conds, Options{Completion: comp, Workers: workers, Stats: &scan})
					got, err := Evaluate(c.base, c.detail, conds, Options{Completion: comp, Workers: workers, Stats: &walk})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if d := want.Diff(got); d != "" {
						t.Errorf("%s: the walk differs from the scan: %s", name, d)
					}
					if walk.Probes > scan.Probes || walk.Matches != scan.Matches || walk.Completed != scan.Completed {
						t.Errorf("%s: walk probes/matches/completed %d/%d/%d, scan %d/%d/%d", name,
							walk.Probes, walk.Matches, walk.Completed, scan.Probes, scan.Matches, scan.Completed)
					}
				}
			}
		}
	}
}

// TestRangeStabProbesByPartition: under completion, a stab column's
// running extremes are rebuilt once the probes since the last compaction
// pay for it, so a tuple completion retired stops no walk for long, and
// cutting the base finer costs no probes. "range: two-column band" of
// TestDetailPassEquivalence over 4 096 detail rows, its base in 1, 2 and
// 4 hash partitions, probed 1 712, 2 508 and 7 131 times while extremes
// were rebuilt only when half the base had retired.
func TestRangeStabProbesByPartition(t *testing.T) {
	base := rangeRel("B", []string{"id", "k"})
	for i := int64(0); i < 64; i++ {
		base.Append(relation.Tuple{value.Int(i), value.Int(i * 11 % 30)})
	}
	conds := []algebra.GMDJCond{{Theta: expr.NewAnd(expr.NewCmp(value.GE, expr.C("R.v"), expr.C("B.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.C("B.id")),
		expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}
	comp := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}}, Tree: algebra.Leaf(0), FreezeTrue: true}
	var want string
	for bits, ceiling := range []int64{156, 143, 135} {
		var stats Stats
		out := evalParts(t, base, passDetail(4096), conds, Options{Completion: comp, Stats: &stats}, func(base *relation.Relation) []partition {
			parts := make([]partition, 1<<bits)
			for bi, row := range base.Rows {
				part := &parts[row.Hash()>>(63-bits)>>1]
				part.rows, part.idx = append(part.rows, row), append(part.idx, int32(bi))
			}
			return parts
		})
		if bits == 0 {
			want = out.String()
		}
		if out.String() != want || stats.Probes > ceiling || stats.Matches != 44 || stats.Completed != 44 {
			t.Errorf("%d partitions: probes/matches/completed %d/%d/%d, want ≤ %d/44/44 and the output of one", 1<<bits, stats.Probes, stats.Matches, stats.Completed, ceiling)
		}
	}
}

// rangeState compiles θ over base and detail and builds the state of one
// range holding the whole base.
func rangeState(t testing.TB, base, detail *relation.Relation, theta expr.Expr) *state {
	t.Helper()
	p, err := compile(base, detail, []algebra.GMDJCond{{Theta: theta, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := len(base.Rows)
	s, err := p.newState(&partition{rows: base.Rows}, 0, n, p.newResult(n))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRangeSortRun pins what newState hands the walk: NULL cells left
// out, keys ordered by value.Compare with ties in base order — at an INT
// span too wide to pack, -0.0 beside 0.0 and NaN last — and a list whose
// cells are of mixed kinds, or BOOL, left unsorted for a whole-list scan.
func TestRangeSortRun(t *testing.T) {
	detail := rangeRel("R", []string{"x"}, relation.Tuple{value.Int(0)})
	theta := expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x"))
	for _, c := range []struct {
		name   string
		ys     []value.Value
		want   []int32
		sorted bool
	}{
		{"INT span ≥ 2^32", []value.Value{value.Int(1 << 40), value.Int(-3), value.Null, value.Int(math.MinInt64), value.Int(-3), value.Int(math.MaxInt64)},
			[]int32{3, 1, 4, 0, 5}, true},
		{"INT packed", []value.Value{value.Int(7), value.Int(-2), value.Int(7), value.Null, value.Int(0)}, []int32{1, 4, 0, 2}, true},
		{"FLOAT", []value.Value{nan, value.Float(0), negZ, value.Float(math.Inf(-1)), value.Null, nan, value.Float(-0.5)},
			[]int32{3, 6, 1, 2, 0, 5}, true},
		{"STRING", []value.Value{value.Str("b"), value.Str(""), value.Null, value.Str("ab"), value.Str("b")}, []int32{1, 3, 0, 4}, true},
		{"all NULL", []value.Value{value.Null, value.Null}, []int32{}, true},
		{"INT beside FLOAT", []value.Value{value.Int(1), value.Float(0.5)}, []int32{0, 1}, false},
		{"STRING beside INT", []value.Value{value.Str("b"), value.Null, value.Int(1), value.Str("a")}, []int32{0, 2, 3}, false},
		{"BOOL", []value.Value{value.Bool(true), value.Bool(false)}, []int32{0, 1}, false},
	} {
		base := rangeRel("B", []string{"y"})
		for _, y := range c.ys {
			base.Append(relation.Tuple{y})
		}
		s := rangeState(t, base, detail, theta)
		if got := s.condScan[0]; (s.rng[0] != nil) != c.sorted || !slices.Equal(got, c.want) {
			t.Errorf("%s: list %v sorted %v, want %v sorted %v", c.name, got, s.rng[0] != nil, c.want, c.sorted)
		}
	}
}

// TestRangeSortOrder: on random lists the radix sort orders a scan list
// exactly as a stable comparison sort by value.Compare does — INT spans
// from 1 to 2^40 and the whole int64 range, FLOAT cells with NaN, ±0,
// infinities and negatives, many ties, and lists of zero to two entries.
func TestRangeSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), -1, 1, -0.5, math.Inf(1), math.Inf(-1), 1e300, -1e-300}
	gens := []struct {
		name string
		gen  func(span int64) value.Value
	}{
		{"INT", func(span int64) value.Value { return value.Int(rng.Int63n(span) - span/2) }},
		{"INT at the int64 ends", func(int64) value.Value {
			return value.Int([]int64{math.MinInt64, math.MaxInt64, 0, -1}[rng.Intn(4)])
		}},
		{"FLOAT", func(span int64) value.Value {
			if rng.Intn(2) == 0 {
				return value.Float(floats[rng.Intn(len(floats))])
			}
			return value.Float(float64(rng.Int63n(span)-span/2) / 4)
		}},
	}
	detail := rangeRel("R", []string{"x"}, relation.Tuple{value.Int(0)})
	theta := expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x"))
	for _, g := range gens {
		name, gen := g.name, g.gen
		for _, span := range []int64{1, 2, 255, 256, 1 << 16, 1<<32 - 1, 1 << 32, 1 << 40} {
			for _, n := range []int{0, 1, 2, 3, 100, 1000} {
				base := rangeRel("B", []string{"y"})
				for i := 0; i < n; i++ {
					y := gen(span)
					if rng.Intn(10) == 0 {
						y = value.Null
					}
					base.Append(relation.Tuple{y})
				}
				var want []int32
				for i, row := range base.Rows {
					if !row[0].IsNull() {
						want = append(want, int32(i))
					}
				}
				slices.SortStableFunc(want, func(a, b int32) int {
					c, _ := value.Compare(base.Rows[a][0], base.Rows[b][0])
					return c
				})
				s := rangeState(t, base, detail, theta)
				if got := s.condScan[0]; s.rng[0] == nil || !slices.Equal(got, want) {
					t.Fatalf("%s, span %d, %d cells: radix order %v, comparison order %v", name, span, n, got, want)
				}
			}
		}
	}
}

// BenchmarkRangeSortRun sorts a scan list of 20 000 INT keys over 1 000
// values, restored to base order before each sort.
func BenchmarkRangeSortRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := rangeRel("B", []string{"y"})
	for i := 0; i < 20_000; i++ {
		base.Append(relation.Tuple{value.Int(rng.Int63n(1000))})
	}
	s := rangeState(b, base, rangeRel("R", []string{"x"}, relation.Tuple{value.Int(0)}), expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x")))
	list := s.condScan[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range list {
			list[k] = int32(k)
		}
		s.sortRun(s.rng[0], list)
	}
}

// TestRangeWalkBounds: a NULL detail bound visits nothing, a bound of a
// kind y's cells do not compare with visits the whole list, and a stab
// column's running maximum stops Example 2.1's walk at the flow's own
// hour — also after a compaction, and on a list completion emptied.
func TestRangeWalkBounds(t *testing.T) {
	base := rangeRel("B", []string{"y", "z"})
	for i := int64(0); i < 100; i++ {
		base.Append(relation.Tuple{value.Int(10 * i), value.Int(10*i + 10)})
	}
	oneSided := expr.NewCmp(value.LE, expr.C("B.y"), expr.C("R.x"))
	hour := expr.NewAnd(oneSided, expr.NewCmp(value.GT, expr.C("B.z"), expr.C("R.w")))
	for _, c := range []struct {
		name   string
		theta  expr.Expr
		x, w   value.Value
		probes int64
	}{
		{"NULL bound", oneSided, value.Null, value.Null, 0},
		{"STRING bound on INT", oneSided, value.Str("500"), value.Null, 100},
		{"FLOAT bound", oneSided, value.Float(499.5), value.Null, 50},
		{"NaN bound", oneSided, nan, value.Null, 100},
		{"stab", hour, value.Int(505), value.Int(505), 1},
		{"stab, NULL", hour, value.Int(505), value.Null, 0},
		{"stab, STRING bound on INT", hour, value.Int(505), value.Str("505"), 0},
		{"stab past the last hour", hour, value.Int(5000), value.Int(5000), 0},
	} {
		s := rangeState(t, base, rangeRel("R", []string{"x", "w"}, relation.Tuple{c.x, c.w}), c.theta)
		if _, err := s.feed(0, 1); err != nil {
			t.Fatal(err)
		}
		if s.stats.Probes != c.probes {
			t.Errorf("%s: %d probes, want %d", c.name, s.stats.Probes, c.probes)
		}
	}
	// The first 80 hours are listed; their flows arrive odd hours first, so
	// completion retires the list's middle until compaction rebuilds the
	// extremes, then empties it: two last flows walk nothing.
	theta := expr.NewAnd(hour, expr.NewCmp(value.LT, expr.C("B.y"), expr.IntLit(800)))
	detail := rangeRel("R", []string{"x", "w"})
	for _, first := range []int64{1, 0} {
		for i := first; i < 80; i += 2 {
			detail.Append(relation.Tuple{value.Int(10*i + 5), value.Int(10*i + 5)})
		}
	}
	detail.Append(relation.Tuple{value.Int(505), value.Int(505)})
	detail.Append(relation.Tuple{value.Int(5), value.Int(5)})
	var stats Stats
	comp := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}}, Tree: algebra.Leaf(0), FreezeTrue: true}
	if _, err := Evaluate(base, detail, []algebra.GMDJCond{{Theta: theta, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}, Options{Completion: comp, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Probes != 80 || stats.Matches != 80 || stats.DetailRows != 82 {
		t.Errorf("probes %d, matches %d, detail rows %d; want 80, 80, 82", stats.Probes, stats.Matches, stats.DetailRows)
	}
}

// TestRangeSortAllocsFlat: a range-bound scan list is sorted in a key
// buffer recycled through sortPool, so a warm sortRun allocates nothing —
// keys packed or ranked — and an Evaluate over 10 000 base tuples
// allocates as often as one over 100.
func TestRangeSortAllocsFlat(t *testing.T) {
	for _, span := range []int64{1, 1 << 40} {
		base := rangeRel("B", []string{"y"})
		for i := int64(0); i < 10_000; i++ {
			base.Append(relation.Tuple{value.Int((i * 7919 % 10_000) * span)})
		}
		s := rangeState(t, base, rangeRel("R", []string{"x"}, relation.Tuple{value.Int(0)}), expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x")))
		if allocs := testing.AllocsPerRun(20, func() { s.sortRun(s.rng[0], s.condScan[0]) }); allocs >= 1 && !raceEnabled {
			t.Errorf("span %d: a warm sortRun makes %v allocations", span, allocs)
		}
	}
	detail := rangeRel("R", []string{"x"})
	for i := int64(0); i < 16; i++ {
		detail.Append(relation.Tuple{value.Int(1 << 20)})
	}
	conds := []algebra.GMDJCond{{Theta: expr.NewCmp(value.LT, expr.C("B.y"), expr.C("R.x")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}
	comp := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}
	allocs := func(nBase int) float64 {
		base := rangeRel("B", []string{"y"})
		for i := 0; i < nBase; i++ {
			base.Append(relation.Tuple{value.Int(int64(nBase - i))})
		}
		return testing.AllocsPerRun(5, func() {
			if out, err := Evaluate(base, detail, conds, Options{Completion: comp}); err != nil || out.Len() != 0 {
				t.Fatalf("Evaluate = %d rows, %v; want every tuple retired", out.Len(), err)
			}
		})
	}
	if small, large := allocs(100), allocs(10_000); large > small+10 {
		t.Errorf("%v allocations over 10 000 base tuples, %v over 100: the sort allocates per tuple", large, small)
	}
}
