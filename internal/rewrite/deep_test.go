package rewrite

import (
	"math/rand"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// TestThreeLevelLinearNesting exercises Theorem 3.2 at depth 3 with
// neighboring correlations only: users for whom there exists an hour
// in which there exists an FTP flow from their IP... expressed so each
// block references only its immediate parent.
func TestThreeLevelLinearNesting(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(31)), 400)
	// level 3: flows within H's window (neighboring: refs H only)
	inner := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			timeWindow("F", "H"),
			expr.Eq(expr.C("F.Protocol"), expr.StrLit("FTP")),
		)},
	}
	// level 2: hours with FTP traffic whose description exceeds SOME
	// flow count... keep it simple: hours with FTP traffic (refs U? no
	// — neighboring chain needs level-2 to correlate to U).
	mid := &algebra.Subquery{
		Source: algebra.NewScan("Hours", "H"),
		Where: algebra.And(
			&algebra.Atom{E: expr.NewCmp(value.GT, expr.C("H.HourDsc"), expr.IntLit(0))},
			algebra.ExistsPred(inner),
		),
	}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.ExistsPred(mid))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestThreeLevelNonNeighboring: depth-3 chain where the innermost
// block references the outermost table — requires push-down through
// two levels (n−1 = 2 joins).
func TestThreeLevelNonNeighboring(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(32)), 300)
	inner := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			timeWindow("F", "H"),
			expr.Eq(expr.C("F.SourceIP"), expr.C("U.IPAddress")), // refs level 1!
		)},
	}
	mid := &algebra.Subquery{
		Source: algebra.NewScan("Hours", "H"),
		Where:  algebra.And(algebra.NotExistsPred(inner)),
	}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.NotExistsPred(mid))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestSubqueryOverFilteredSource: the subquery's FROM is itself a
// filtered plan, not a bare scan.
func TestSubqueryOverFilteredSource(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(33)), 300)
	sub := &algebra.Subquery{
		Source: algebra.Filter(algebra.NewScan("Flow", "FI"),
			expr.NewCmp(value.GT, expr.C("FI.NumBytes"), expr.IntLit(50))),
		Where: &algebra.Atom{E: timeWindow("FI", "H")},
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestSubqueryWhereTrue: a completely uncorrelated EXISTS (constant
// subquery) — b is kept iff the inner table is non-empty.
func TestSubqueryWhereTrue(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(34)), 10)
	sub := &algebra.Subquery{Source: algebra.NewScan("Flow", "FI")}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))
	out := runBoth(t, cat, plan, false)
	if out.Len() != 4 {
		t.Errorf("non-empty inner keeps all hours, got %d", out.Len())
	}
	// Empty inner drops everything.
	catEmpty := netflowCatalog(rand.New(rand.NewSource(35)), 0)
	out2 := runBoth(t, catEmpty, plan, true)
	if out2.Len() != 0 {
		t.Errorf("empty inner must drop all hours, got %d", out2.Len())
	}
}

// TestMixedAtomAndSubqueryConjunction: plain atoms interleaved with
// subquery predicates survive the rewrite (W grammar generality).
func TestMixedAtomAndSubqueryConjunction(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(36)), 250)
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.And(
			&algebra.Atom{E: expr.NewCmp(value.GE, expr.C("H.HourDsc"), expr.IntLit(2))},
			algebra.ExistsPred(existsSub("167.167.167.0")),
			&algebra.Atom{E: expr.NewCmp(value.LE, expr.C("H.HourDsc"), expr.IntLit(3))},
		))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestAggregateSubqueryWithSumAndMin exercises non-count aggregates
// through the Table 1 aggregate row.
func TestAggregateSubqueryWithSumAndMin(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(37)), 300)
	for _, fn := range []agg.Func{agg.Sum, agg.Min, agg.Max, agg.Count} {
		sub := &algebra.Subquery{
			Source: algebra.NewScan("Flow", "FI"),
			Where:  &algebra.Atom{E: timeWindow("FI", "H")},
			Agg:    &agg.Spec{Func: fn, Arg: expr.C("FI.NumBytes")},
		}
		plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
			&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.LT, Left: expr.IntLit(40), Sub: sub})
		for _, opt := range []bool{false, true} {
			runBoth(t, cat, plan, opt)
		}
	}
}

// TestCompletionSoundnessUnderRandomPredicates fuzzes the completion
// detector: whatever it attaches must never change results.
func TestCompletionSoundnessUnderRandomPredicates(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		cat := netflowCatalog(rng, 150)
		plan := randomPlan(rng)
		e := exec.New(cat)
		basic, err := SubqueryToGMDJ(plan, e)
		if err != nil {
			t.Fatal(err)
		}
		optimized, err := Optimize(basic, e)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Run(basic)
		if err != nil {
			t.Fatal(err)
		}
		b, err := e.Run(optimized)
		if err != nil {
			t.Fatal(err)
		}
		if d := a.Diff(b); d != "" {
			t.Fatalf("trial %d: Optimize changed results: %s\nbasic: %s\noptimized: %s",
				trial, d, basic, optimized)
		}
	}
}

// TestCompletionSeesEnclosingTheta: an enclosing GMDJ's θ reads the
// count of a σ[C](MD) pair in its base, so the pair may complete early
// but must not freeze: c is 3, and a c frozen at its first match (1)
// would let R's row (v = 2) satisfy R.v > c.
func TestCompletionSeesEnclosingTheta(t *testing.T) {
	cat := storage.NewCatalog()
	table := func(name string, cols []string, rows ...relation.Tuple) {
		sch := make([]relation.Column, len(cols))
		for i, c := range cols {
			sch[i] = relation.Column{Qualifier: name, Name: c, Type: value.KindInt}
		}
		rel := relation.New(relation.NewSchema(sch...))
		for _, r := range rows {
			rel.Append(r)
		}
		cat.Register(storage.NewTable(name, rel))
	}
	one := relation.Tuple{value.Int(1)}
	table("B", []string{"k"}, one)
	table("S", []string{"sk"}, one, one, one)
	table("R", []string{"rk", "v"}, relation.Tuple{value.Int(1), value.Int(2)})
	inner := algebra.NewGMDJ(algebra.NewScan("B", ""), algebra.NewScan("S", ""), algebra.GMDJCond{
		Theta: eqCols("S.sk", "B.k"), Aggs: []agg.Spec{{Func: agg.CountStar, As: "c"}}})
	outer := algebra.NewGMDJ(algebra.Filter(inner, gt("c", 0)), algebra.NewScan("R", ""), algebra.GMDJCond{
		Theta: expr.NewAnd(eqCols("R.rk", "B.k"), expr.NewCmp(value.GT, expr.C("R.v"), expr.C("c"))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "d"}}})
	plan := algebra.Filter(outer, gt("d", 0))
	attached := AttachCompletion(plan)

	e := exec.New(cat)
	want, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(attached)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" || want.Len() != 0 {
		t.Errorf("%d rows without completion, with it: %s\nplan: %s", want.Len(), d, attached)
	}
	walkNodes(attached, func(n algebra.Node) {
		if g, ok := n.(*algebra.GMDJ); ok && g.Detail.String() == "S" {
			if g.Completion == nil || g.Completion.FreezeTrue {
				t.Errorf("inner GMDJ completion %+v, want attached without freezing", g.Completion)
			}
		}
	})
}
