package engine

import (
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/value"
)

func TestEstimateCostMonotoneInTableSize(t *testing.T) {
	small := New(datagen.Netflow(datagen.NetflowOpts{Flows: 100, Hours: 4, Users: 4, Seed: 1}))
	defer small.Close()
	big := New(datagen.Netflow(datagen.NetflowOpts{Flows: 10_000, Hours: 4, Users: 4, Seed: 1}))
	defer big.Close()
	plan := existsPlan()
	if small.EstimateCost(plan) >= big.EstimateCost(plan) {
		t.Error("cost must grow with table size")
	}
}

func TestCostPrefersGMDJOverNestedLoopNative(t *testing.T) {
	// Equality correlation + large outer block: the GMDJ answers the
	// whole query in one hash-bound scan, while tuple iteration pays
	// |outer| × |inner|. The model must rank accordingly.
	e := New(datagen.Netflow(datagen.NetflowOpts{Flows: 50_000, Hours: 24, Users: 200, Seed: 2}))
	defer e.Close()
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where:  &algebra.Atom{E: expr.Eq(expr.C("F.SourceIP"), expr.C("U.IPAddress"))},
	}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.ExistsPred(sub))
	native := e.EstimateCost(plan)
	g, err := e.Plan(plan, GMDJ)
	if err != nil {
		t.Fatal(err)
	}
	if e.EstimateCost(g) >= native {
		t.Errorf("GMDJ plan (%g) should be cheaper than native (%g) on a big detail table",
			e.EstimateCost(g), native)
	}
	// And Auto should therefore not pick Native here.
	_, strat, err := e.PlanAuto(plan)
	if err != nil {
		t.Fatal(err)
	}
	if strat == Native {
		t.Error("auto picked native despite the quadratic tuple-iteration cost")
	}
}

func TestCostRanksCompletionAboveBasicOnBindingless(t *testing.T) {
	e := New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 10_000, Seed: 3}))
	defer e.Close()
	sub := &algebra.Subquery{
		Source: algebra.NewScan("B", "B"),
		Where:  &algebra.Atom{E: expr.NewCmp(value.NE, expr.C("B.b_key"), expr.C("A.a_key"))},
		OutCol: expr.C("B.b_val"),
	}
	plan := algebra.NewRestrict(algebra.NewScan("A", "A"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.NE, Left: expr.C("A.a_val"), Sub: sub})
	basic, err := e.Plan(plan, GMDJ)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.Plan(plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if e.EstimateCost(opt) >= e.EstimateCost(basic) {
		t.Errorf("optimized plan (%g) should price below basic (%g) on the Figure 4 workload",
			e.EstimateCost(opt), e.EstimateCost(basic))
	}
}

func TestAutoStrategyPicksAndRuns(t *testing.T) {
	e := New(datagen.Netflow(datagen.NetflowOpts{Flows: 2_000, Hours: 6, Users: 6, Seed: 4}))
	defer e.Close()
	plan := existsPlan()
	chosen, strat, err := e.PlanAuto(plan)
	if err != nil {
		t.Fatal(err)
	}
	if chosen == nil {
		t.Fatal("no plan chosen")
	}
	t.Logf("auto chose %v", strat)
	// Auto must agree with every explicit strategy.
	want, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(plan, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("auto strategy wrong: %s", d)
	}
	if Auto.String() != "auto" {
		t.Error("Auto name")
	}
}

func TestAutoSurvivesUnnestFailure(t *testing.T) {
	// Disjunctive subqueries break the Unnest rewriting; Auto must
	// skip it and still deliver a correct plan.
	e := New(datagen.Netflow(datagen.NetflowOpts{Flows: 500, Hours: 4, Users: 4, Seed: 5}))
	defer e.Close()
	mk := func(alias, proto string) *algebra.Subquery {
		return &algebra.Subquery{
			Source: algebra.NewScan("Flow", alias),
			Where: &algebra.Atom{E: expr.NewAnd(
				expr.NewCmp(value.GE, expr.C(alias+".StartTime"), expr.C("H.StartInterval")),
				expr.NewCmp(value.LT, expr.C(alias+".StartTime"), expr.C("H.EndInterval")),
				expr.Eq(expr.C(alias+".Protocol"), expr.StrLit(proto)),
			)},
		}
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.Or(
		algebra.ExistsPred(mk("F1", "FTP")),
		algebra.ExistsPred(mk("F2", "DNS")),
	))
	want, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Run(plan, Auto)
	if err != nil {
		t.Fatal(err)
	}
	if d := want.Diff(got); d != "" {
		t.Errorf("auto differs: %s", d)
	}
}

func TestCostSubqueryPenalizesTupleIteration(t *testing.T) {
	// A plan containing a raw subquery predicate must price in the
	// per-outer-row inner scans.
	e := New(datagen.Netflow(datagen.NetflowOpts{Flows: 20_000, Hours: 24, Users: 8, Seed: 6}))
	defer e.Close()
	withSub := e.EstimateCost(existsPlan())
	plain := e.EstimateCost(algebra.Filter(algebra.NewScan("Hours", "H"),
		expr.NewCmp(value.GT, expr.C("H.HourDsc"), expr.IntLit(1))))
	if withSub < plain*10 {
		t.Errorf("subquery cost (%g) should dwarf a plain filter (%g)", withSub, plain)
	}
}
