package exec

import (
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// testCatalog builds the paper's netflow schema with small data.
//
// Flow rows: (SourceIP, DestIP, StartTime, Protocol, NumBytes)
// Hours rows: (HourDsc, StartInterval, EndInterval)
func testCatalog() *storage.Catalog {
	cat := storage.NewCatalog()

	flow := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Flow", Name: "SourceIP", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "DestIP", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "StartTime", Type: value.KindInt},
		relation.Column{Qualifier: "Flow", Name: "Protocol", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "NumBytes", Type: value.KindInt},
	))
	rows := []struct {
		src, dst string
		t        int64
		proto    string
		n        int64
	}{
		{"10.0.0.1", "167.167.167.0", 43, "HTTP", 12},
		{"10.0.0.2", "168.168.168.0", 86, "HTTP", 36},
		{"10.0.0.1", "10.0.0.2", 99, "FTP", 48},
		{"10.0.0.3", "168.168.168.0", 132, "HTTP", 24},
		{"10.0.0.2", "10.0.0.1", 156, "HTTP", 24},
		{"10.0.0.3", "169.169.169.0", 161, "FTP", 48},
	}
	for _, r := range rows {
		flow.Append(relation.Tuple{
			value.Str(r.src), value.Str(r.dst), value.Int(r.t), value.Str(r.proto), value.Int(r.n),
		})
	}
	cat.Register(storage.NewTable("Flow", flow))

	hours := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Hours", Name: "HourDsc", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "StartInterval", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "EndInterval", Type: value.KindInt},
	))
	hours.Append(relation.Tuple{value.Int(1), value.Int(0), value.Int(60)})
	hours.Append(relation.Tuple{value.Int(2), value.Int(61), value.Int(120)})
	hours.Append(relation.Tuple{value.Int(3), value.Int(121), value.Int(180)})
	cat.Register(storage.NewTable("Hours", hours))

	nums := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Nums", Name: "n", Type: value.KindInt},
	))
	for _, v := range []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Null} {
		nums.Append(relation.Tuple{v})
	}
	cat.Register(storage.NewTable("Nums", nums))

	return cat
}

func run(t *testing.T, e *Executor, plan algebra.Node) *relation.Relation {
	t.Helper()
	out, err := e.Run(plan)
	if err != nil {
		t.Fatalf("Run(%s): %v", plan, err)
	}
	return out
}

func TestScanRename(t *testing.T) {
	e := New(testCatalog())
	out := run(t, e, algebra.NewScan("Flow", "F"))
	if out.Len() != 6 {
		t.Errorf("rows = %d", out.Len())
	}
	if out.Schema.Columns[0].Qualifier != "F" {
		t.Errorf("qualifier = %q", out.Schema.Columns[0].Qualifier)
	}
	if _, err := e.Run(algebra.NewScan("Missing", "")); err == nil {
		t.Error("unknown table must error")
	}
}

func TestFilterTruncatesUnknown(t *testing.T) {
	e := New(testCatalog())
	// n > 1 over {1,2,3,NULL}: keeps 2,3; NULL row is Unknown → dropped.
	out := run(t, e, algebra.Filter(
		algebra.NewScan("Nums", "N"),
		expr.NewCmp(value.GT, expr.C("N.n"), expr.IntLit(1)),
	))
	if out.Len() != 2 {
		t.Errorf("rows = %d, want 2 (where-clause truncation)", out.Len())
	}
}

func TestProjectDistinctAndComputed(t *testing.T) {
	e := New(testCatalog())
	out := run(t, e, algebra.ProjectCols(algebra.NewScan("Flow", "F"), true, "F.SourceIP"))
	if out.Len() != 3 {
		t.Errorf("distinct sources = %d, want 3", out.Len())
	}
	out = run(t, e, algebra.NewProject(algebra.NewScan("Flow", "F"), false,
		algebra.ProjItem{E: expr.NewArith(expr.OpMul, expr.C("F.NumBytes"), expr.IntLit(2)), As: "dbl"},
	))
	if out.Rows[0][0].AsInt() != 24 {
		t.Errorf("computed = %v", out.Rows[0][0])
	}
}

func TestDistinctNode(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewDistinct(algebra.ProjectCols(algebra.NewScan("Flow", "F"), false, "F.Protocol"))
	out := run(t, e, plan)
	if out.Len() != 2 {
		t.Errorf("distinct protocols = %d, want 2", out.Len())
	}
}

func TestInnerHashJoin(t *testing.T) {
	e := New(testCatalog())
	// Self-join Flow on SourceIP = DestIP: pairs where someone's source
	// is another's destination.
	plan := algebra.NewJoin(algebra.InnerJoin,
		algebra.NewScan("Flow", "A"), algebra.NewScan("Flow", "B"),
		expr.Eq(expr.C("A.SourceIP"), expr.C("B.DestIP")))
	out := run(t, e, plan)
	// DestIPs 10.0.0.2 (1 row) and 10.0.0.1 (1 row): sources 10.0.0.2
	// appears twice, 10.0.0.1 twice → 2*1 + 2*1 = 4 pairs.
	if out.Len() != 4 {
		t.Errorf("join rows = %d, want 4", out.Len())
	}
	if out.Schema.Len() != 10 {
		t.Errorf("join width = %d", out.Schema.Len())
	}
}

func TestNonEquiJoinFallsBackToNestedLoop(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewJoin(algebra.InnerJoin,
		algebra.NewScan("Hours", "H1"), algebra.NewScan("Hours", "H2"),
		expr.NewCmp(value.LT, expr.C("H1.HourDsc"), expr.C("H2.HourDsc")))
	out := run(t, e, plan)
	if out.Len() != 3 { // (1,2),(1,3),(2,3)
		t.Errorf("rows = %d, want 3", out.Len())
	}
}

func TestLeftOuterJoinPadsNulls(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewJoin(algebra.LeftOuterJoin,
		algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"),
		expr.NewAnd(
			expr.Eq(expr.C("F.Protocol"), expr.StrLit("FTP")),
			expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
		))
	out := run(t, e, plan)
	// FTP flows at 99 (hour 2) and 161 (hour 3); hour 1 unmatched → padded.
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
	var padded int
	for _, row := range out.Rows {
		if row[3].IsNull() {
			padded++
			if row[0].AsInt() != 1 {
				t.Errorf("padded row for hour %v, want hour 1", row[0])
			}
		}
	}
	if padded != 1 {
		t.Errorf("padded rows = %d, want 1", padded)
	}
}

func TestSemiAntiJoin(t *testing.T) {
	e := New(testCatalog())
	on := expr.NewAnd(
		expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
		expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
		expr.Eq(expr.C("F.Protocol"), expr.StrLit("FTP")),
	)
	semi := run(t, e, algebra.NewJoin(algebra.SemiJoin,
		algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"), on))
	if semi.Len() != 2 {
		t.Errorf("semi rows = %d, want 2 (hours with FTP traffic)", semi.Len())
	}
	anti := run(t, e, algebra.NewJoin(algebra.AntiJoin,
		algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"), on))
	if anti.Len() != 1 {
		t.Errorf("anti rows = %d, want 1", anti.Len())
	}
	if semi.Schema.Len() != 3 || anti.Schema.Len() != 3 {
		t.Error("semi/anti must keep the left schema")
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewJoin(algebra.InnerJoin,
		algebra.NewScan("Nums", "A"), algebra.NewScan("Nums", "B"),
		expr.Eq(expr.C("A.n"), expr.C("B.n")))
	out := run(t, e, plan)
	if out.Len() != 3 {
		t.Errorf("rows = %d, want 3 (NULL=NULL must not match)", out.Len())
	}
}

// TestJoinUnqualifiedOn: an ON clause naming columns without their
// qualifiers, each resolving on one side only, keys the hash join as the
// qualified clause does and returns the same rows in the same order,
// whichever side each equality names first.
func TestJoinUnqualifiedOn(t *testing.T) {
	cat := storage.NewCatalog()
	table := func(q string, names []string, rows ...relation.Tuple) {
		cols := make([]relation.Column, len(names))
		for i, n := range names {
			cols[i] = relation.Column{Qualifier: q, Name: n, Type: value.KindInt}
		}
		rel := relation.New(relation.NewSchema(cols...))
		for _, row := range rows {
			rel.Append(row)
		}
		cat.Register(storage.NewTable(q, rel))
	}
	n := value.Int
	// The keys sit at different positions: L(a, v) and RR(w, b).
	table("L", []string{"a", "v"}, relation.Tuple{n(1), n(0)}, relation.Tuple{n(2), n(1)},
		relation.Tuple{n(2), n(2)}, relation.Tuple{value.Null, n(3)}, relation.Tuple{n(5), n(4)})
	table("RR", []string{"w", "b"}, relation.Tuple{n(0), n(2)}, relation.Tuple{n(2), n(1)},
		relation.Tuple{n(4), value.Null}, relation.Tuple{n(6), n(2)}, relation.Tuple{n(8), n(3)})
	e := New(cat)
	qualified := expr.NewAnd(expr.Eq(expr.C("L.a"), expr.C("RR.b")), expr.NewCmp(value.GE, expr.C("RR.w"), expr.C("L.v")))
	bare := expr.NewAnd(expr.Eq(expr.C("b"), expr.C("a")), expr.NewCmp(value.GE, expr.C("w"), expr.C("v")))
	for _, tc := range []struct {
		name string
		kind algebra.JoinKind
		rows int
	}{{"inner", algebra.InnerJoin, 3}, {"left outer", algebra.LeftOuterJoin, 5}, {"semi", algebra.SemiJoin, 3}, {"anti", algebra.AntiJoin, 2}} {
		t.Run(tc.name, func(t *testing.T) {
			join := func(on expr.Expr) *relation.Relation {
				return run(t, e, algebra.NewJoin(tc.kind, algebra.NewScan("L", ""), algebra.NewScan("RR", ""), on))
			}
			want, got := join(qualified), join(bare)
			if want.Len() != tc.rows {
				t.Errorf("qualified ON gives %d rows, want %d", want.Len(), tc.rows)
			}
			if got.String() != want.String() {
				t.Errorf("unqualified ON gives\n%s\nqualified gives\n%s", got, want)
			}
		})
	}
}

func TestGroupBy(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewGroupBy(algebra.NewScan("Flow", "F"),
		[]*expr.Col{expr.C("F.SourceIP")},
		[]agg.Spec{
			{Func: agg.CountStar, As: "cnt"},
			{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "bytes"},
		})
	out := run(t, e, plan)
	if out.Len() != 3 {
		t.Fatalf("groups = %d, want 3", out.Len())
	}
	got := map[string][2]int64{}
	for _, row := range out.Rows {
		got[row[0].AsString()] = [2]int64{row[1].AsInt(), row[2].AsInt()}
	}
	if got["10.0.0.1"] != [2]int64{2, 60} {
		t.Errorf("10.0.0.1 = %v", got["10.0.0.1"])
	}
	if got["10.0.0.3"] != [2]int64{2, 72} {
		t.Errorf("10.0.0.3 = %v", got["10.0.0.3"])
	}
}

func TestGroupByGlobalEmptyInput(t *testing.T) {
	e := New(testCatalog())
	empty := algebra.Filter(algebra.NewScan("Flow", "F"), expr.BoolLit(false))
	plan := algebra.NewGroupBy(empty, nil, []agg.Spec{
		{Func: agg.CountStar, As: "cnt"},
		{Func: agg.Max, Arg: expr.C("F.NumBytes"), As: "mx"},
	})
	out := run(t, e, plan)
	if out.Len() != 1 {
		t.Fatalf("global aggregate over empty input must yield 1 row, got %d", out.Len())
	}
	if out.Rows[0][0].AsInt() != 0 || !out.Rows[0][1].IsNull() {
		t.Errorf("row = %v, want [0, NULL]", out.Rows[0])
	}
}

func TestGMDJNodeThroughExecutor(t *testing.T) {
	e := New(testCatalog())
	plan := algebra.NewGMDJ(
		algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"),
		algebra.GMDJCond{
			Theta: expr.NewAnd(
				expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
				expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
			),
			Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "total"}},
		})
	out := run(t, e, plan)
	if out.Len() != 3 {
		t.Fatalf("rows = %d", out.Len())
	}
	want := map[int64]int64{1: 12, 2: 84, 3: 96}
	for _, row := range out.Rows {
		if row[3].AsInt() != want[row[0].AsInt()] {
			t.Errorf("hour %v = %v", row[0], row[3])
		}
	}
}

// TestGMDJPlanSchemaMatchesResult: a hand-built GMDJ whose aggregates
// carry no alias has the output columns its plan schema promises, so a
// projection over the plan's own aggregate columns runs.
func TestGMDJPlanSchemaMatchesResult(t *testing.T) {
	e := New(testCatalog())
	g := algebra.NewGMDJ(
		algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"),
		algebra.GMDJCond{
			Theta: expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
			Aggs:  []agg.Spec{{Func: agg.CountStar}, {Func: agg.Sum, Arg: expr.C("F.NumBytes")}},
		})
	plan, err := g.Schema(e)
	if err != nil {
		t.Fatal(err)
	}
	got := run(t, e, g).Schema
	if plan.Len() != got.Len() {
		t.Fatalf("plan schema %v, result schema %v", plan, got)
	}
	for i, c := range plan.Columns {
		if c != got.Columns[i] {
			t.Errorf("column %d: plan %+v, result %+v", i, c, got.Columns[i])
		}
	}
	for _, c := range plan.Columns[3:] {
		run(t, e, algebra.ProjectCols(g, false, c.Name))
	}
}

// ---------------------------------------------------------------------------
// Native subquery evaluation

// existsHoursPlan is Example 2.2's base-values expression: hours in
// which there exists traffic to a given destination.
func existsHoursPlan(dest string) algebra.Node {
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.Eq(expr.C("FI.DestIP"), expr.StrLit(dest)),
			expr.NewCmp(value.GE, expr.C("FI.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("FI.StartTime"), expr.C("H.EndInterval")),
		)},
	}
	return algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))
}

func TestNativeExists(t *testing.T) {
	e := New(testCatalog())
	out := run(t, e, existsHoursPlan("168.168.168.0"))
	// Flows to 168.168.168.0 at t=86 (hour 2) and t=132 (hour 3).
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	for _, row := range out.Rows {
		if h := row[0].AsInt(); h != 2 && h != 3 {
			t.Errorf("unexpected hour %d", h)
		}
	}
}

func TestNativeNotExists(t *testing.T) {
	e := New(testCatalog())
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.NewCmp(value.GE, expr.C("FI.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("FI.StartTime"), expr.C("H.EndInterval")),
			expr.Eq(expr.C("FI.Protocol"), expr.StrLit("FTP")),
		)},
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.NotExistsPred(sub)))
	if out.Len() != 1 || out.Rows[0][0].AsInt() != 1 {
		t.Errorf("hours without FTP = %v", out)
	}
}

func TestNativeInWithNulls(t *testing.T) {
	e := New(testCatalog())
	// n IN (SELECT n ...) — NULL outer never matches; inner NULL
	// doesn't poison positives.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Nums", "M"),
		OutCol: expr.C("M.n"),
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		algebra.In(expr.C("N.n"), sub)))
	if out.Len() != 3 {
		t.Errorf("IN rows = %d, want 3 (NULL dropped)", out.Len())
	}
}

func TestNativeNotInWithNullInnerIsEmpty(t *testing.T) {
	e := New(testCatalog())
	// x NOT IN (set containing NULL) is never True in SQL: x ≠ NULL is
	// Unknown, which infects the ALL conjunction.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Nums", "M"),
		OutCol: expr.C("M.n"),
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		algebra.NotIn(expr.C("N.n"), sub)))
	if out.Len() != 0 {
		t.Errorf("NOT IN rows = %d, want 0 — the classic NULL trap", out.Len())
	}
}

func TestNativeNotInWithoutNulls(t *testing.T) {
	e := New(testCatalog())
	sub := &algebra.Subquery{
		Source: algebra.Filter(algebra.NewScan("Nums", "M"),
			expr.NewCmp(value.LE, expr.C("M.n"), expr.IntLit(2))),
		OutCol: expr.C("M.n"),
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		algebra.NotIn(expr.C("N.n"), sub)))
	// {1,2,3,NULL} NOT IN {1,2}: keeps 3 only (NULL outer → Unknown).
	if out.Len() != 1 || out.Rows[0][0].AsInt() != 3 {
		t.Errorf("NOT IN = %v", out.Rows)
	}
}

func TestNativeAllEmptyIsTrue(t *testing.T) {
	e := New(testCatalog())
	sub := &algebra.Subquery{
		Source: algebra.Filter(algebra.NewScan("Nums", "M"), expr.BoolLit(false)),
		OutCol: expr.C("M.n"),
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.GT, Left: expr.C("N.n"), Sub: sub}))
	// ALL over the empty set is true for every outer row, including
	// NULL outer (no comparison is ever evaluated).
	if out.Len() != 4 {
		t.Errorf("ALL-empty rows = %d, want 4", out.Len())
	}
}

// TestNativeAllVsMaxFootnote demonstrates footnote 2 of the paper:
// x > ALL(S) is NOT equivalent to x > MAX(S) when S is empty only if
// NULL handling is wrong; here we check both give the documented SQL
// answers (ALL: true; MAX: unknown → dropped).
func TestNativeAllVsMaxFootnote(t *testing.T) {
	e := New(testCatalog())
	emptySrc := algebra.Filter(algebra.NewScan("Nums", "M"), expr.BoolLit(false))
	all := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.GT, Left: expr.C("N.n"),
			Sub: &algebra.Subquery{Source: emptySrc, OutCol: expr.C("M.n")}}))
	maxCmp := run(t, e, algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.GT, Left: expr.C("N.n"),
			Sub: &algebra.Subquery{Source: emptySrc,
				Agg: &agg.Spec{Func: agg.Max, Arg: expr.C("M.n"), As: "m"}}}))
	if all.Len() != 4 {
		t.Errorf("ALL over empty = %d rows, want 4", all.Len())
	}
	if maxCmp.Len() != 0 {
		t.Errorf("MAX over empty = %d rows, want 0 (max of nothing is NULL)", maxCmp.Len())
	}
}

func TestNativeScalarAggregateCompare(t *testing.T) {
	e := New(testCatalog())
	// Flows whose bytes exceed the average bytes of their protocol.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "G"),
		Where:  &algebra.Atom{E: expr.Eq(expr.C("G.Protocol"), expr.C("F.Protocol"))},
		Agg:    &agg.Spec{Func: agg.Avg, Arg: expr.C("G.NumBytes"), As: "a"},
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Flow", "F"),
		&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.GT, Left: expr.C("F.NumBytes"), Sub: sub}))
	// HTTP avg = (12+36+24+24)/4 = 24 → 36 qualifies. FTP avg = 48 → none.
	if out.Len() != 1 || out.Rows[0][4].AsInt() != 36 {
		t.Errorf("scalar agg compare = %v", out.Rows)
	}
}

func TestNativeScalarMultiRowErrors(t *testing.T) {
	e := New(testCatalog())
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "G"),
		OutCol: expr.C("G.NumBytes"),
	}
	_, err := e.Run(algebra.NewRestrict(algebra.NewScan("Nums", "N"),
		&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.EQ, Left: expr.C("N.n"), Sub: sub}))
	if err == nil || !strings.Contains(err.Error(), "more than one row") {
		t.Errorf("multi-row scalar subquery must raise the run-time exception, got %v", err)
	}
}

func TestNativeNestedTwoLevels(t *testing.T) {
	e := New(testCatalog())
	// Hours for which there is no FTP flow: expressed as a nested
	// double negation over the Protocol list (artificial but exercises
	// depth-2 compilation): NOT EXISTS flow in hour with protocol IN
	// (FTP).
	protoSub := &algebra.Subquery{
		Source: algebra.Filter(algebra.NewScan("Flow", "P"),
			expr.Eq(expr.C("P.Protocol"), expr.StrLit("FTP"))),
		OutCol: expr.C("P.Protocol"),
	}
	flowSub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where: algebra.And(
			&algebra.Atom{E: expr.NewAnd(
				expr.NewCmp(value.GE, expr.C("FI.StartTime"), expr.C("H.StartInterval")),
				expr.NewCmp(value.LT, expr.C("FI.StartTime"), expr.C("H.EndInterval")),
			)},
			algebra.In(expr.C("FI.Protocol"), protoSub),
		),
	}
	out := run(t, e, algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.NotExistsPred(flowSub)))
	if out.Len() != 1 || out.Rows[0][0].AsInt() != 1 {
		t.Errorf("nested result = %v", out.Rows)
	}
}

func TestIndexAccelerationMatchesScan(t *testing.T) {
	cat := testCatalog()
	flowTbl, _ := cat.Table("Flow")
	if err := flowTbl.BuildHashIndex("DestIP"); err != nil {
		t.Fatal(err)
	}
	if err := flowTbl.BuildSortedIndex("StartTime"); err != nil {
		t.Fatal(err)
	}
	plan := existsHoursPlan("168.168.168.0")

	withIdx := New(cat)
	noIdx := New(cat)
	noIdx.UseIndexes = false

	a := run(t, withIdx, plan)
	b := run(t, noIdx, plan)
	if d := a.Diff(b); d != "" {
		t.Errorf("indexed and unindexed native results differ: %s", d)
	}
}

func TestSortedIndexRangeAcceleration(t *testing.T) {
	cat := testCatalog()
	flowTbl, _ := cat.Table("Flow")
	if err := flowTbl.BuildSortedIndex("StartTime"); err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	// Correlated range-only subquery: count per hour via EXISTS.
	out := run(t, e, existsHoursPlan("168.168.168.0"))
	if out.Len() != 2 {
		t.Errorf("rows = %d, want 2", out.Len())
	}
}

func TestSubPredMissingOutputRejected(t *testing.T) {
	e := New(testCatalog())
	bad := &algebra.SubPred{
		Kind: algebra.CmpSome, Op: value.EQ, Left: expr.C("N.n"),
		Sub: &algebra.Subquery{Source: algebra.NewScan("Nums", "M")},
	}
	if _, err := e.Run(algebra.NewRestrict(algebra.NewScan("Nums", "N"), bad)); err == nil {
		t.Error("SOME without output column must error")
	}
}

func TestRestrictWithMixedPredicateTree(t *testing.T) {
	e := New(testCatalog())
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.NewCmp(value.GE, expr.C("FI.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("FI.StartTime"), expr.C("H.EndInterval")),
			expr.Eq(expr.C("FI.Protocol"), expr.StrLit("FTP")),
		)},
	}
	// hour = 1 OR exists FTP flow in hour.
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.Or(
		&algebra.Atom{E: expr.Eq(expr.C("H.HourDsc"), expr.IntLit(1))},
		algebra.ExistsPred(sub),
	))
	out := run(t, e, plan)
	if out.Len() != 3 {
		t.Errorf("rows = %d, want 3", out.Len())
	}
}
