package gmdj

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// hoursFlow builds the paper's Figure 1 input tables.
func hoursFlow() (*relation.Relation, *relation.Relation) {
	hours := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "H", Name: "HourDsc", Type: value.KindInt},
		relation.Column{Qualifier: "H", Name: "StartInterval", Type: value.KindInt},
		relation.Column{Qualifier: "H", Name: "EndInterval", Type: value.KindInt},
	))
	hours.Append(relation.Tuple{value.Int(1), value.Int(0), value.Int(60)})
	hours.Append(relation.Tuple{value.Int(2), value.Int(61), value.Int(120)})
	hours.Append(relation.Tuple{value.Int(3), value.Int(121), value.Int(180)})

	flow := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "F", Name: "StartTime", Type: value.KindInt},
		relation.Column{Qualifier: "F", Name: "Protocol", Type: value.KindString},
		relation.Column{Qualifier: "F", Name: "NumBytes", Type: value.KindInt},
	))
	for _, r := range []struct {
		t int64
		p string
		n int64
	}{
		{43, "HTTP", 12}, {86, "HTTP", 36}, {99, "FTP", 48},
		{132, "HTTP", 24}, {156, "HTTP", 24}, {161, "FTP", 48},
	} {
		flow.Append(relation.Tuple{value.Int(r.t), value.Str(r.p), value.Int(r.n)})
	}
	return hours, flow
}

func timeWindow() expr.Expr {
	return expr.NewAnd(
		expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
		expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
	)
}

// TestPaperExample21 reproduces Figure 1 exactly: sum1/sum2 per hour
// must be 12/12, 36/84, 48/96.
func TestPaperExample21(t *testing.T) {
	hours, flow := hoursFlow()
	conds := []algebra.GMDJCond{
		{
			Theta: expr.NewAnd(timeWindow(), expr.Eq(expr.C("F.Protocol"), expr.StrLit("HTTP"))),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "sum1"}},
		},
		{
			Theta: timeWindow(),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "sum2"}},
		},
	}
	out, err := Evaluate(hours, flow, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 3 {
		t.Fatalf("rows = %d, want 3", out.Len())
	}
	want := map[int64][2]int64{1: {12, 12}, 2: {36, 84}, 3: {48, 96}}
	for _, row := range out.Rows {
		h := row[0].AsInt()
		w := want[h]
		if row[3].AsInt() != w[0] || row[4].AsInt() != w[1] {
			t.Errorf("hour %d: sum1/sum2 = %v/%v, want %d/%d", h, row[3], row[4], w[0], w[1])
		}
	}
}

// TestNoBindingFallback exercises the scan path: θ has only a range
// predicate, no equality, so no hash index can be built.
func TestNoBindingFallback(t *testing.T) {
	hours, flow := hoursFlow()
	var stats Stats
	conds := []algebra.GMDJCond{{
		Theta: timeWindow(),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	out, err := Evaluate(hours, flow, conds, Options{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FallbackConds != 1 {
		t.Errorf("FallbackConds = %d, want 1", stats.FallbackConds)
	}
	want := map[int64]int64{1: 1, 2: 2, 3: 3}
	for _, row := range out.Rows {
		if row[3].AsInt() != want[row[0].AsInt()] {
			t.Errorf("hour %v cnt = %v", row[0], row[3])
		}
	}
}

// TestEquiBindingUsesIndex checks that an equality correlation builds
// an index and probes rather than scanning.
func TestEquiBindingUsesIndex(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 100; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	for i := int64(0); i < 1000; i++ {
		detail.Append(relation.Tuple{value.Int(i % 100), value.Int(i)})
	}
	var stats Stats
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FallbackConds != 0 {
		t.Error("equality condition should not fall back")
	}
	// Each detail row probes exactly one bucket with one candidate.
	if stats.Probes > stats.DetailRows*2 {
		t.Errorf("probes = %d for %d detail rows — index not effective", stats.Probes, stats.DetailRows)
	}
	for _, row := range out.Rows {
		if row[1].AsInt() != 10 {
			t.Errorf("k=%v cnt = %v, want 10", row[0], row[1])
		}
	}
}

// TestNullKeysNeverMatch: SQL equality never matches NULL, on either
// side.
func TestNullKeysNeverMatch(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	base.Append(relation.Tuple{value.Int(1)})
	base.Append(relation.Tuple{value.Null})
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	detail.Append(relation.Tuple{value.Int(1)})
	detail.Append(relation.Tuple{value.Null})
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range out.Rows {
		k, cnt := row[0], row[1].AsInt()
		if k.IsNull() && cnt != 0 {
			t.Errorf("NULL base key matched %d rows", cnt)
		}
		if !k.IsNull() && cnt != 1 {
			t.Errorf("k=1 matched %d rows, want 1 (NULL detail must not match)", cnt)
		}
	}
}

// TestEmptyDetailYieldsBaseWithEmptyAggregates: |X| = |B| always; sums
// over the empty range are NULL and counts are 0.
func TestEmptyDetailYieldsBaseWithEmptyAggregates(t *testing.T) {
	hours, flow := hoursFlow()
	flow.Rows = nil
	out, err := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: timeWindow(),
		Aggs: []agg.Spec{
			{Func: agg.CountStar, As: "cnt"},
			{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "s"},
		},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != hours.Len() {
		t.Fatalf("output size %d, want %d", out.Len(), hours.Len())
	}
	for _, row := range out.Rows {
		if row[3].AsInt() != 0 {
			t.Error("count over empty detail must be 0")
		}
		if !row[4].IsNull() {
			t.Error("sum over empty detail must be NULL")
		}
	}
}

// TestEmptyBase: |X| = |B| = 0, and a scan that owns no tuple skips
// every detail row, under a fallback θ and a hash-bound one alike.
func TestEmptyBase(t *testing.T) {
	hours, flow := hoursFlow()
	hours.Rows = nil
	for _, theta := range []expr.Expr{timeWindow(), expr.Eq(expr.C("H.HourDsc"), expr.C("F.NumBytes"))} {
		var stats Stats
		out, err := Evaluate(hours, flow, []algebra.GMDJCond{{
			Theta: theta,
			Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
		}}, Options{Stats: &stats})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 0 {
			t.Errorf("%s: output size %d, want 0", theta, out.Len())
		}
		if stats.DetailRows != 0 || stats.ShortCircuitRows != int64(flow.Len()) {
			t.Errorf("%s: DetailRows = %d, ShortCircuitRows = %d; want 0 and %d", theta, stats.DetailRows, stats.ShortCircuitRows, flow.Len())
		}
	}
}

func TestMultipleBindingsCompositeKey(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "a", Type: value.KindInt},
		relation.Column{Qualifier: "B", Name: "b", Type: value.KindInt},
	))
	base.Append(relation.Tuple{value.Int(1), value.Int(2)})
	base.Append(relation.Tuple{value.Int(1), value.Int(3)})
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "a", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "b", Type: value.KindInt},
	))
	detail.Append(relation.Tuple{value.Int(1), value.Int(2)})
	detail.Append(relation.Tuple{value.Int(1), value.Int(3)})
	detail.Append(relation.Tuple{value.Int(1), value.Int(2)})
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.NewAnd(
			expr.Eq(expr.C("B.a"), expr.C("R.a")),
			expr.Eq(expr.C("B.b"), expr.C("R.b")),
		),
		Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]int64{}
	for _, row := range out.Rows {
		got[row[1].AsInt()] = row[2].AsInt()
	}
	if got[2] != 2 || got[3] != 1 {
		t.Errorf("composite key counts = %v", got)
	}
}

func TestBaseOnlyConjunctDisablesCondition(t *testing.T) {
	hours, flow := hoursFlow()
	// θ requires H.HourDsc = 2, so hours 1 and 3 must see no matches.
	out, err := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: expr.NewAnd(timeWindow(), expr.Eq(expr.C("H.HourDsc"), expr.IntLit(2))),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range out.Rows {
		want := int64(0)
		if row[0].AsInt() == 2 {
			want = 2
		}
		if row[3].AsInt() != want {
			t.Errorf("hour %v cnt = %v, want %d", row[0], row[3], want)
		}
	}
}

func TestAmbiguousColumnError(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "X", Name: "k", Type: value.KindInt},
	))
	base.Append(relation.Tuple{value.Int(1)})
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "X", Name: "k", Type: value.KindInt},
	))
	detail.Append(relation.Tuple{value.Int(1)})
	_, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.NewCmp(value.GT, expr.C("X.k"), expr.IntLit(0)),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err == nil {
		t.Error("qualifier shared by base and detail must be rejected")
	}
}

// TestCompletionNotExists: σ[cnt = 0] plans retire base tuples on
// first match (Theorem 4.2).
func TestCompletionNotExists(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 10; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	// Keys 0..4 appear (many times); 5..9 never.
	for rep := 0; rep < 20; rep++ {
		for i := int64(0); i < 5; i++ {
			detail.Append(relation.Tuple{value.Int(i)})
		}
	}
	comp := &algebra.CompletionInfo{
		Atoms:      []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:       algebra.Leaf(0),
		FreezeTrue: true,
	}
	var stats Stats
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{Completion: comp, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	// Tuples 0..4 decided False (dropped); 5..9 remain with cnt=0.
	if out.Len() != 5 {
		t.Fatalf("rows = %d, want 5", out.Len())
	}
	for _, row := range out.Rows {
		if row[0].AsInt() < 5 || row[1].AsInt() != 0 {
			t.Errorf("unexpected surviving row %v", row)
		}
	}
	if stats.Completed != 5 {
		t.Errorf("Completed = %d, want 5", stats.Completed)
	}
}

// TestCompletionExistsFreeze: σ[cnt > 0] with FreezeTrue emits frozen
// counts; the surviving rows still satisfy cnt > 0.
func TestCompletionExistsFreeze(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	base.Append(relation.Tuple{value.Int(1)})
	base.Append(relation.Tuple{value.Int(2)})
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < 50; i++ {
		detail.Append(relation.Tuple{value.Int(1)})
	}
	comp := &algebra.CompletionInfo{
		Atoms:      []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}},
		Tree:       algebra.Leaf(0),
		FreezeTrue: true,
	}
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{Completion: comp})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("rows = %d, want 2 (True-frozen row kept, undecided row kept)", out.Len())
	}
	for _, row := range out.Rows {
		k, cnt := row[0].AsInt(), row[1].AsInt()
		if k == 1 && cnt < 1 {
			t.Errorf("frozen count = %d, want >= 1", cnt)
		}
		if k == 2 && cnt != 0 {
			t.Errorf("k=2 cnt = %d, want 0", cnt)
		}
	}
}

// TestCompletionComposite mirrors Example 4.2: cnt1=0 ∧ cnt2>0 ∧ cnt3=0.
func TestCompletionComposite(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 4; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "tag", Type: value.KindInt},
	))
	// k=0: tag1 only (fails cnt1=0) ; k=1: tag2 only (passes);
	// k=2: tag2+tag3 (fails cnt3=0) ; k=3: nothing (fails cnt2>0).
	add := func(k, tag int64) { detail.Append(relation.Tuple{value.Int(k), value.Int(tag)}) }
	add(0, 1)
	add(1, 2)
	add(2, 2)
	add(2, 3)
	cond := func(tag int64, name string) algebra.GMDJCond {
		return algebra.GMDJCond{
			Theta: expr.NewAnd(
				expr.Eq(expr.C("B.k"), expr.C("R.k")),
				expr.Eq(expr.C("R.tag"), expr.IntLit(tag)),
			),
			Aggs: []agg.Spec{{Func: agg.CountStar, As: name}},
		}
	}
	comp := &algebra.CompletionInfo{
		Atoms: []algebra.CompletionAtom{
			{Cond: 0, Kind: algebra.AtomZero},
			{Cond: 1, Kind: algebra.AtomNonZero},
			{Cond: 2, Kind: algebra.AtomZero},
		},
		Tree:       algebra.AndTree(algebra.Leaf(0), algebra.Leaf(1), algebra.Leaf(2)),
		FreezeTrue: false, // conjunction with ZERO atoms can never decide True early
	}
	out, err := Evaluate(base, detail, []algebra.GMDJCond{
		cond(1, "cnt1"), cond(2, "cnt2"), cond(3, "cnt3"),
	}, Options{Completion: comp})
	if err != nil {
		t.Fatal(err)
	}
	// k=0 and k=2 decided False and dropped; k=1 and k=3 remain
	// (k=3 undecided — the final σ rejects it downstream).
	got := map[int64][]int64{}
	for _, row := range out.Rows {
		got[row[0].AsInt()] = []int64{row[1].AsInt(), row[2].AsInt(), row[3].AsInt()}
	}
	if _, ok := got[0]; ok {
		t.Error("k=0 should have been completed (cnt1 matched)")
	}
	if _, ok := got[2]; ok {
		t.Error("k=2 should have been completed (cnt3 matched)")
	}
	if c, ok := got[1]; !ok || c[0] != 0 || c[1] != 1 || c[2] != 0 {
		t.Errorf("k=1 counts = %v", c)
	}
	if c, ok := got[3]; !ok || c[0] != 0 || c[1] != 0 || c[2] != 0 {
		t.Errorf("k=3 counts = %v", c)
	}
}

// TestParallelMatchesSerial is the core property: parallel evaluation
// must produce the same bag as serial, across random inputs.
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nBase, nDetail := 1+rng.Intn(30), rng.Intn(500)
		base := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		))
		for i := 0; i < nBase; i++ {
			base.Append(relation.Tuple{value.Int(int64(rng.Intn(10)))})
		}
		detail := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
			relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
		))
		for i := 0; i < nDetail; i++ {
			detail.Append(relation.Tuple{value.Int(int64(rng.Intn(10))), value.Int(int64(rng.Intn(100)))})
		}
		conds := []algebra.GMDJCond{
			{
				Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
				Aggs: []agg.Spec{
					{Func: agg.CountStar, As: "cnt"},
					{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
					{Func: agg.Min, Arg: expr.C("R.v"), As: "mn"},
					{Func: agg.Max, Arg: expr.C("R.v"), As: "mx"},
					{Func: agg.Avg, Arg: expr.C("R.v"), As: "av"},
				},
			},
			{
				Theta: expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")),
				Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt2"}},
			},
		}
		serial, err := Evaluate(base, detail, conds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		par, err := Evaluate(base, detail, conds, Options{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if d := serial.Diff(par); d != "" {
			t.Fatalf("trial %d: parallel differs from serial: %s", trial, d)
		}
	}
}

// TestParallelCompletionDropsSameRows: completion decisions derived
// from merged flags equal serial decisions.
func TestParallelCompletionDropsSameRows(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 50; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 25; i++ {
		for j := 0; j < 5; j++ {
			detail.Append(relation.Tuple{value.Int(i)})
		}
	}
	comp := &algebra.CompletionInfo{
		Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:  algebra.Leaf(0),
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	serial, err := Evaluate(base, detail, conds, Options{Completion: comp})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(base, detail, conds, Options{Completion: comp, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Len() != 25 || par.Len() != 25 {
		t.Fatalf("serial %d, parallel %d rows; want 25", serial.Len(), par.Len())
	}
	if d := serial.Diff(par); d != "" {
		t.Errorf("parallel completion differs: %s", d)
	}
}

func TestEvalTreeKleene(t *testing.T) {
	atoms := []algebra.CompletionAtom{
		{Cond: 0, Kind: algebra.AtomZero},
		{Cond: 1, Kind: algebra.AtomNonZero},
	}
	tree := algebra.OrTree(algebra.Leaf(1), algebra.NotTree(algebra.Leaf(0)))
	// Nothing matched: Unknown.
	if got := evalTree(tree, atoms, []bool{false, false}); got != value.Unknown {
		t.Errorf("unmatched = %v", got)
	}
	// Atom 1 matched (True): OR decides True.
	if got := evalTree(tree, atoms, []bool{false, true}); got != value.True {
		t.Errorf("nonzero matched = %v", got)
	}
	// Atom 0 matched (False), NOT makes it True: decides True.
	if got := evalTree(tree, atoms, []bool{true, false}); got != value.True {
		t.Errorf("zero matched via NOT = %v", got)
	}
	// AND of a matched ZERO atom decides False regardless of the rest.
	and := algebra.AndTree(algebra.Leaf(0), algebra.Leaf(1))
	if got := evalTree(and, atoms, []bool{true, false}); got != value.False {
		t.Errorf("AND with failed atom = %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	hours, flow := hoursFlow()
	var stats Stats
	_, err := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: timeWindow(),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.DetailRows != 6 {
		t.Errorf("DetailRows = %d", stats.DetailRows)
	}
	if stats.Matches != 6 {
		t.Errorf("Matches = %d, want 6 (every flow falls in exactly one hour)", stats.Matches)
	}
	// The hours are disjoint: sorted on StartInterval, each flow's walk
	// visits its own hour and stops at the next, whose EndInterval (the
	// running maximum) is not above the flow's StartTime — one probe per
	// match, where scanning all 3 hours per flow took 18.
	if stats.Probes != 6 {
		t.Errorf("Probes = %d, want 6 (the walk visits only the flow's own hour)", stats.Probes)
	}
}

// TestOutputBoundedByBase: the property the paper stresses — output
// cardinality equals |B| regardless of |R| (without completion).
func TestOutputBoundedByBase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < 17; i++ {
		base.Append(relation.Tuple{value.Int(int64(rng.Intn(5)))}) // duplicates allowed
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < 1000; i++ {
		detail.Append(relation.Tuple{value.Int(int64(rng.Intn(5)))})
	}
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != base.Len() {
		t.Errorf("|X| = %d, want |B| = %d", out.Len(), base.Len())
	}
}

func TestDuplicateBaseTuplesEachGetOutput(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	base.Append(relation.Tuple{value.Int(1)})
	base.Append(relation.Tuple{value.Int(1)})
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	detail.Append(relation.Tuple{value.Int(1)})
	out, err := Evaluate(base, detail, []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("duplicate base tuples must both appear, got %d rows", out.Len())
	}
	for _, row := range out.Rows {
		if row[1].AsInt() != 1 {
			t.Errorf("cnt = %v", row[1])
		}
	}
}

func TestBadCompletionAtomIndex(t *testing.T) {
	hours, flow := hoursFlow()
	comp := &algebra.CompletionInfo{
		Atoms: []algebra.CompletionAtom{{Cond: 5, Kind: algebra.AtomZero}},
		Tree:  algebra.Leaf(0),
	}
	_, err := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: timeWindow(),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}, Options{Completion: comp})
	if err == nil {
		t.Error("out-of-range completion atom must be rejected")
	}
}

// TestAggregateBindingErrors: an aggregate argument that reads neither
// the base nor the detail fails to bind.
func TestAggregateBindingErrors(t *testing.T) {
	hours, flow := hoursFlow()
	_, err := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: timeWindow(),
		Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("X.Nope"), As: "s"}},
	}}, Options{})
	if err == nil {
		t.Error("aggregate over an unknown column must be rejected")
	}
}

// TestAggregateReadsBase: an aggregate argument may read the base tuple
// as well as the detail (SQL's SUM(b.v + a.x) correlated to a). Its
// condition folds base ++ detail; a detail-only condition beside it
// folds the detail row, at either degree.
func TestAggregateReadsBase(t *testing.T) {
	hours, flow := hoursFlow()
	plus := expr.NewArith(expr.OpAdd, expr.C("F.NumBytes"), expr.C("H.HourDsc"))
	for _, workers := range []int{1, 4} {
		out, err := Evaluate(hours, flow, []algebra.GMDJCond{
			{Theta: timeWindow(), Aggs: []agg.Spec{
				{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "bytes"},
				{Func: agg.Sum, Arg: plus, As: "plus"},
			}},
			{Theta: timeWindow(), Aggs: []agg.Spec{{Func: agg.Max, Arg: expr.C("F.NumBytes"), As: "most"}}},
		}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range out.Rows {
			got = append(got, fmt.Sprint(row[3:]))
		}
		if want := "[[12, 13, 12] [84, 88, 48] [96, 105, 48]]"; fmt.Sprint(got) != want {
			t.Errorf("workers %d: bytes, plus, most = %v, want %s", workers, got, want)
		}
	}
}

func ExampleEvaluate() {
	hours, flow := hoursFlow()
	out, _ := Evaluate(hours, flow, []algebra.GMDJCond{{
		Theta: expr.NewAnd(
			expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
		),
		Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "bytes"}},
	}}, Options{})
	for _, row := range out.Rows {
		fmt.Printf("hour %v: %v bytes\n", row[0], row[3])
	}
	// Output:
	// hour 1: 12 bytes
	// hour 2: 84 bytes
	// hour 3: 96 bytes
}
