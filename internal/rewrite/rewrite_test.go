package rewrite

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/unnest"
	"github.com/olaplab/gmdj/internal/value"
)

// netflowCatalog builds the paper's running-example schema: Flow,
// Hours, User.
func netflowCatalog(rng *rand.Rand, nFlows int) *storage.Catalog {
	cat := storage.NewCatalog()

	ips := []string{
		"10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4",
		"167.167.167.0", "168.168.168.0", "169.169.169.0",
	}
	protos := []string{"HTTP", "FTP", "SMTP"}
	flow := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Flow", Name: "SourceIP", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "DestIP", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "StartTime", Type: value.KindInt},
		relation.Column{Qualifier: "Flow", Name: "Protocol", Type: value.KindString},
		relation.Column{Qualifier: "Flow", Name: "NumBytes", Type: value.KindInt},
	))
	for i := 0; i < nFlows; i++ {
		flow.Append(relation.Tuple{
			value.Str(ips[rng.Intn(len(ips))]),
			value.Str(ips[rng.Intn(len(ips))]),
			value.Int(int64(rng.Intn(240))),
			value.Str(protos[rng.Intn(len(protos))]),
			value.Int(int64(1 + rng.Intn(100))),
		})
	}
	cat.Register(storage.NewTable("Flow", flow))

	hours := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Hours", Name: "HourDsc", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "StartInterval", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "EndInterval", Type: value.KindInt},
	))
	for h := int64(0); h < 4; h++ {
		hours.Append(relation.Tuple{value.Int(h + 1), value.Int(h * 60), value.Int((h + 1) * 60)})
	}
	cat.Register(storage.NewTable("Hours", hours))

	user := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "User", Name: "Name", Type: value.KindString},
		relation.Column{Qualifier: "User", Name: "IPAddress", Type: value.KindString},
	))
	for i, ip := range ips[:4] {
		user.Append(relation.Tuple{value.Str("user" + string(rune('a'+i))), value.Str(ip)})
	}
	cat.Register(storage.NewTable("User", user))

	return cat
}

// timeWindow builds the H/F correlation used throughout the paper.
func timeWindow(f, h string) expr.Expr {
	return expr.NewAnd(
		expr.NewCmp(value.GE, expr.C(f+".StartTime"), expr.C(h+".StartInterval")),
		expr.NewCmp(value.LT, expr.C(f+".StartTime"), expr.C(h+".EndInterval")),
	)
}

// runBoth executes the plan natively (tuple iteration) and through
// SubqueryToGMDJ (optionally optimized) and requires identical bags.
func runBoth(t *testing.T, cat *storage.Catalog, plan algebra.Node, optimize bool) *relation.Relation {
	t.Helper()
	return runBothWith(t, cat, exec.New(cat).Run, plan, optimize)
}

// runBothWith is runBoth with the rewritten plan run by gmdjRun.
func runBothWith(t *testing.T, cat *storage.Catalog, gmdjRun func(algebra.Node) (*relation.Relation, error), plan algebra.Node, optimize bool) *relation.Relation {
	t.Helper()
	e := exec.New(cat)

	native, err := e.Run(plan)
	if err != nil {
		t.Fatalf("native run: %v", err)
	}

	opts := Options{}
	if optimize {
		opts.AllCounterexample = true
	}
	rewritten, err := SubqueryToGMDJOpts(plan, e, opts)
	if err != nil {
		t.Fatalf("SubqueryToGMDJ: %v", err)
	}
	if optimize {
		rewritten, err = Optimize(rewritten, e)
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
	}
	gmdjOut, err := gmdjRun(rewritten)
	if err != nil {
		t.Fatalf("gmdj run of %s: %v", rewritten, err)
	}
	if d := native.Diff(gmdjOut); d != "" {
		t.Fatalf("GMDJ result differs from native (optimize=%v): %s\nplan: %s\nrewritten: %s",
			optimize, d, plan, rewritten)
	}
	return native
}

// existsSub builds Example 2.2's subquery: flows to dest within H's
// window.
func existsSub(dest string) *algebra.Subquery {
	return &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.Eq(expr.C("FI.DestIP"), expr.StrLit(dest)),
			timeWindow("FI", "H"),
		)},
	}
}

func TestTable1Exists(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(1)), 200)
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.ExistsPred(existsSub("167.167.167.0")))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

func TestTable1NotExists(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(2)), 200)
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.NotExistsPred(existsSub("169.169.169.0")))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

func TestTable1Some(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(3)), 150)
	// Hours whose description equals SOME flow hour-bucket (contrived
	// but exercises =_some with correlation-free inner).
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where:  &algebra.Atom{E: expr.NewCmp(value.LT, expr.C("FI.NumBytes"), expr.IntLit(30))},
		OutCol: expr.C("FI.StartTime"),
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		&algebra.SubPred{Kind: algebra.CmpSome, Op: value.GT, Left: expr.C("H.EndInterval"), Sub: sub})
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

func TestTable1All(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(4)), 100)
	// Hours that start after ALL cheap flows.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where:  &algebra.Atom{E: expr.NewCmp(value.LT, expr.C("FI.NumBytes"), expr.IntLit(10))},
		OutCol: expr.C("FI.StartTime"),
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.GT, Left: expr.C("H.StartInterval"), Sub: sub})
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

func TestTable1AllEmptyInnerKeepsEverything(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(5)), 50)
	sub := &algebra.Subquery{
		Source: algebra.Filter(algebra.NewScan("Flow", "FI"), expr.BoolLit(false)),
		OutCol: expr.C("FI.StartTime"),
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.LT, Left: expr.C("H.StartInterval"), Sub: sub})
	out := runBoth(t, cat, plan, false)
	if out.Len() != 4 {
		t.Errorf("ALL over empty inner must keep all 4 hours, got %d", out.Len())
	}
	runBoth(t, cat, plan, true)
}

func TestTable1ScalarAggregate(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(6)), 150)
	// Hours whose interval start exceeds the average start time of
	// flows in that hour window (correlated aggregate).
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "FI"),
		Where:  &algebra.Atom{E: timeWindow("FI", "H")},
		Agg:    &agg.Spec{Func: agg.Avg, Arg: expr.C("FI.NumBytes"), As: "a"},
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.LT, Left: expr.IntLit(40), Sub: sub})
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

func TestTable1ScalarColumnUniqueInner(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(7)), 0)
	// Inner yields exactly one row per outer: Hours self-lookup by key.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Hours", "H2"),
		Where:  &algebra.Atom{E: expr.Eq(expr.C("H2.HourDsc"), expr.C("H.HourDsc"))},
		OutCol: expr.C("H2.StartInterval"),
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		&algebra.SubPred{Kind: algebra.ScalarCmp, Op: value.GE, Left: expr.C("H.StartInterval"), Sub: sub})
	out := runBoth(t, cat, plan, false)
	if out.Len() != 4 {
		t.Errorf("self-lookup must keep all hours, got %d", out.Len())
	}
}

// TestPaperExample22 is the full Example 2.2/3.1 query: web-traffic
// fraction per hour, restricted to hours with traffic to a target IP.
func TestPaperExample22(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(8)), 300)
	b := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.ExistsPred(existsSub("167.167.167.0")))
	plan := algebra.NewGMDJ(b, algebra.NewScan("Flow", "FO"),
		algebra.GMDJCond{
			Theta: expr.NewAnd(timeWindow("FO", "H"), expr.Eq(expr.C("FO.Protocol"), expr.StrLit("HTTP"))),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("FO.NumBytes"), As: "sum1"}},
		},
		algebra.GMDJCond{
			Theta: timeWindow("FO", "H"),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("FO.NumBytes"), As: "sum2"}},
		},
	)
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// paperExample23Plan builds Example 2.3/3.2: source IPs with no flows
// to dest1, some flow to dest2, and no flows to dest3, extended with
// to/from byte totals.
func paperExample23Plan() algebra.Node {
	subTo := func(alias, dest string) *algebra.Subquery {
		return &algebra.Subquery{
			Source: algebra.NewScan("Flow", alias),
			Where: &algebra.Atom{E: expr.NewAnd(
				expr.Eq(expr.C("F0.SourceIP"), expr.C(alias+".SourceIP")),
				expr.Eq(expr.C(alias+".DestIP"), expr.StrLit(dest)),
			)},
		}
	}
	b := algebra.NewRestrict(
		algebra.ProjectCols(algebra.NewScan("Flow", "F0"), true, "F0.SourceIP"),
		algebra.And(
			algebra.NotExistsPred(subTo("F1", "167.167.167.0")),
			algebra.ExistsPred(subTo("F2", "168.168.168.0")),
			algebra.NotExistsPred(subTo("F3", "169.169.169.0")),
		))
	return algebra.NewProject(
		algebra.NewGMDJ(b, algebra.NewScan("Flow", "F"),
			algebra.GMDJCond{
				Theta: expr.Eq(expr.C("F0.SourceIP"), expr.C("F.SourceIP")),
				Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "sumTo"}},
			},
			algebra.GMDJCond{
				Theta: expr.Eq(expr.C("F0.SourceIP"), expr.C("F.DestIP")),
				Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("F.NumBytes"), As: "sumFrom"}},
			},
		),
		false,
		algebra.ProjItem{E: expr.C("F0.SourceIP")},
		algebra.ProjItem{E: expr.C("sumTo")},
		algebra.ProjItem{E: expr.C("sumFrom")},
	)
}

func TestPaperExample23(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(9)), 400)
	plan := paperExample23Plan()
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestCoalesceExample41 verifies Proposition 4.1: the optimized plan
// for Example 2.3 contains exactly one GMDJ (five conditions, one scan
// of Flow) below the selection.
func TestCoalesceExample41(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(10)), 100)
	e := exec.New(cat)
	plan := paperExample23Plan()
	rewritten, err := SubqueryToGMDJ(plan, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := countGMDJs(rewritten); got != 4 {
		t.Fatalf("basic rewrite should have 4 GMDJs (3 subqueries + outer), got %d:\n%s", got, rewritten)
	}
	optimized, err := Optimize(rewritten, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := countGMDJs(optimized); got != 1 {
		t.Fatalf("coalesced plan should have exactly 1 GMDJ, got %d:\n%s", got, optimized)
	}
	var g *algebra.GMDJ
	walkNodes(optimized, func(n algebra.Node) {
		if x, ok := n.(*algebra.GMDJ); ok {
			g = x
		}
	})
	if len(g.Conds) != 5 {
		t.Errorf("merged GMDJ has %d conditions, want 5", len(g.Conds))
	}
	if g.Completion == nil {
		t.Error("merged GMDJ should carry completion info (Example 4.2)")
	} else if g.Completion.FreezeTrue {
		t.Error("FreezeTrue must be off: sumTo/sumFrom are consumed downstream")
	}
	// And of course it must still be correct.
	a, err := e.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(optimized)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("optimized plan wrong: %s", d)
	}
}

// TestPaperExample33 is the non-neighboring query: users active in
// every hour (double existential negation), where the innermost
// predicate references the outermost table.
func TestPaperExample33(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(11)), 500)
	inner := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			timeWindow("F", "H"),
			expr.Eq(expr.C("F.SourceIP"), expr.C("U.IPAddress")), // non-neighboring!
		)},
	}
	outer := &algebra.Subquery{
		Source: algebra.NewScan("Hours", "H"),
		Where: algebra.And(
			&algebra.Atom{E: expr.NewCmp(value.GT, expr.C("H.StartInterval"), expr.IntLit(-1))},
			algebra.NotExistsPred(inner),
		),
	}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.NotExistsPred(outer))
	for _, opt := range []bool{false, true} {
		got := runBoth(t, cat, plan, opt)
		// Sanity: with 500 random flows some users are active in all 4
		// hours; verify against a hand computation.
		e := exec.New(cat)
		flows, _ := e.Run(algebra.NewScan("Flow", "F"))
		users, _ := e.Run(algebra.NewScan("User", "U"))
		want := 0
		for _, u := range users.Rows {
			ip := u[1].AsString()
			active := map[int64]bool{}
			for _, f := range flows.Rows {
				if f[0].AsString() == ip {
					active[f[2].AsInt()/60] = true
				}
			}
			all := true
			for h := int64(0); h < 4; h++ {
				if !active[h] {
					all = false
				}
			}
			if all {
				want++
			}
		}
		if got.Len() != want {
			t.Errorf("active users = %d, want %d", got.Len(), want)
		}
	}
}

// TestExample33IntroducesOneJoin: the paper proves non-neighboring
// push-down costs exactly depth−1 joins; here depth is 2, so one join.
func TestExample33IntroducesOneJoin(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(12)), 50)
	e := exec.New(cat)
	inner := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			timeWindow("F", "H"),
			expr.Eq(expr.C("F.SourceIP"), expr.C("U.IPAddress")),
		)},
	}
	outer := &algebra.Subquery{
		Source: algebra.NewScan("Hours", "H"),
		Where:  algebra.And(algebra.NotExistsPred(inner)),
	}
	plan := algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.NotExistsPred(outer))
	rewritten, err := SubqueryToGMDJ(plan, e)
	if err != nil {
		t.Fatal(err)
	}
	joins := 0
	walkNodes(rewritten, func(n algebra.Node) {
		if _, ok := n.(*algebra.Join); ok {
			joins++
		}
	})
	if joins != 1 {
		t.Errorf("rewritten plan has %d joins, want exactly 1:\n%s", joins, rewritten)
	}
}

// TestNegationElimination: ¬EXISTS under OR is handled by the
// integrated algorithm's normalization.
func TestNegationElimination(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(13)), 200)
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.Not(algebra.Or(
			algebra.ExistsPred(existsSub("167.167.167.0")),
			algebra.ExistsPred(existsSub("168.168.168.0")),
		)))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestDisjunctiveSubqueries: subquery predicates under OR (the W
// grammar of Theorem 3.5 allows arbitrary boolean structure).
func TestDisjunctiveSubqueries(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(14)), 200)
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"),
		algebra.Or(
			algebra.ExistsPred(existsSub("169.169.169.0")),
			algebra.And(
				&algebra.Atom{E: expr.Eq(expr.C("H.HourDsc"), expr.IntLit(1))},
				algebra.NotExistsPred(existsSub("10.0.0.1")),
			),
		))
	for _, opt := range []bool{false, true} {
		runBoth(t, cat, plan, opt)
	}
}

// TestNotInNullTrap: the NOT IN + NULL semantics must survive the
// rewrite (the count-based ALL translation counts only True matches,
// which is exactly SQL's behaviour under truncation).
func TestNotInNullTrap(t *testing.T) {
	cat := storage.NewCatalog()
	mk := func(name string, vals ...value.Value) {
		r := relation.New(relation.NewSchema(
			relation.Column{Qualifier: name, Name: "n", Type: value.KindInt},
		))
		for _, v := range vals {
			r.Append(relation.Tuple{v})
		}
		cat.Register(storage.NewTable(name, r))
	}
	mk("L", value.Int(1), value.Int(2), value.Int(3), value.Null)
	mk("R", value.Int(2), value.Null)

	sub := &algebra.Subquery{Source: algebra.NewScan("R", "R"), OutCol: expr.C("R.n")}
	plan := algebra.NewRestrict(algebra.NewScan("L", "L"), algebra.NotIn(expr.C("L.n"), sub))
	out := runBoth(t, cat, plan, false)
	if out.Len() != 0 {
		t.Errorf("NOT IN over a NULL-bearing set must be empty, got %d rows", out.Len())
	}
	runBoth(t, cat, plan, true)
}

// TestRandomizedEquivalence fuzzes random query shapes over random
// data, NULL- and NaN-dense in half the trials, and checks that all four
// strategies agree: native ≡ unnest (where it applies) ≡ GMDJ ≡
// optimized GMDJ.
func TestRandomizedEquivalence(t *testing.T) {
	unnested := 0
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		cat := netflowCatalog(rng, 100+rng.Intn(200))
		if trial%2 == 1 {
			densify(cat, rng)
		}
		if _, ok := runAll(t, cat, randomPlan(rng)); ok {
			unnested++
		}
	}
	if unnested == 0 {
		t.Error("unnest applied to no trial")
	}
}

// TestRandomizedEquivalenceRouted is the slice of the fuzz that reaches
// the routed fold: blocks correlated by equality, a detail of two
// morsels or more, degree 2 and a 2 KiB pool, so that each GMDJ bound on
// one key routes its detail rows to key partitions in memory or under
// spill — and one bound on two keys does not. The four strategies must
// agree.
func TestRandomizedEquivalenceRouted(t *testing.T) {
	equi := func(rng *rand.Rand, f string) expr.Expr {
		return expr.Eq(expr.C(f+".StartTime"), expr.C([]string{"H.StartInterval", "H.EndInterval"}[rng.Intn(2)]))
	}
	// A routed GMDJ folds in key partitions: two in memory at degree 2,
	// and under spill it reads the detail once over several partitions.
	var routed [2]int
	var count func(op *obs.Op, spilling int)
	count = func(op *obs.Op, spilling int) {
		if strings.HasPrefix(op.Label, "GMDJ") && op.Get("detail_scans") == 0 && (op.Get("workers") == 2 || op.Get("spill_partitions") > 0) {
			routed[spilling]++
		}
		for _, ch := range op.Children {
			count(ch, spilling)
		}
	}
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		cat := netflowCatalog(rng, 2*govern.MorselRows+rng.Intn(govern.MorselRows))
		if trial%2 == 1 {
			densify(cat, rng)
		}
		e := exec.New(cat)
		e.Parallelism = 2
		store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
		if err != nil {
			t.Fatal(err)
		}
		e.Spill = store
		for spilling, pool := range []*mem.Pool{nil, mem.NewPool(2<<10, time.Second)} {
			run := func(plan algebra.Node) (*relation.Relation, error) {
				res, err := pool.Acquire(context.Background(), mem.DefaultQueryReserve)
				if err != nil {
					return nil, err
				}
				defer res.Release()
				gov, col := govern.New(context.Background(), govern.Budget{}), obs.NewCollector(nil)
				gov.AttachReservation(res)
				out, err := e.RunObserved(plan, gov, col)
				count(col.Root(), spilling)
				return out, err
			}
			runAllWith(t, cat, run, randomPlanWith(rng, equi))
		}
		if n := store.LiveFiles(); n != 0 {
			t.Errorf("trial %d: %d spill files left behind", trial, n)
		}
	}
	if routed[0] == 0 || routed[1] == 0 {
		t.Errorf("routed GMDJs: %d in memory, %d spilled; want some of each", routed[0], routed[1])
	}
}

// runAll is runBoth across the four strategies: native, GMDJ, optimized
// GMDJ, and unnest unless it rejects the plan (a subquery predicate
// under OR or NOT). ok reports whether unnest ran.
func runAll(t *testing.T, cat *storage.Catalog, plan algebra.Node) (want *relation.Relation, ok bool) {
	t.Helper()
	return runAllWith(t, cat, exec.New(cat).Run, plan)
}

// runAllWith is runAll with the GMDJ plans run by gmdjRun.
func runAllWith(t *testing.T, cat *storage.Catalog, gmdjRun func(algebra.Node) (*relation.Relation, error), plan algebra.Node) (want *relation.Relation, ok bool) {
	t.Helper()
	want = runBothWith(t, cat, gmdjRun, plan, false)
	runBothWith(t, cat, gmdjRun, plan, true)
	e := exec.New(cat)
	joins, err := unnest.Unnest(plan, e)
	if err != nil {
		return want, false
	}
	got, err := e.Run(joins)
	if err != nil {
		t.Fatalf("unnest run of %s: %v", joins, err)
	}
	if d := want.Diff(got); d != "" {
		t.Fatalf("unnest result differs from native: %s\nplan: %s\nunnested: %s", d, plan, joins)
	}
	return want, true
}

// densify makes the range-bound θ meet every kind of cell it sorts,
// bounds and stabs with: Hours becomes 3–40 random, overlapping
// intervals plus a duplicate of one of them, and the interval columns
// and Flow's StartTime and NumBytes get a NULL in one cell of ten —
// and, in a FLOAT trial, a NaN in one of ten, -0.0 for 0 and FLOAT
// cells throughout.
func densify(cat *storage.Catalog, rng *rand.Rand) {
	float := rng.Intn(2) == 0
	cell := func(v int64) value.Value {
		switch r := rng.Intn(10); {
		case r == 0:
			return value.Null
		case !float:
			return value.Int(v)
		case r == 1:
			return value.Float(math.NaN())
		case v == 0:
			return value.Float(math.Copysign(0, -1))
		}
		return value.Float(float64(v))
	}
	hours := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "Hours", Name: "HourDsc", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "StartInterval", Type: value.KindInt},
		relation.Column{Qualifier: "Hours", Name: "EndInterval", Type: value.KindInt},
	))
	for h, n := 0, 3+rng.Intn(38); h < n; h++ {
		start := int64(rng.Intn(240))
		hours.Append(relation.Tuple{value.Int(int64(h + 1)), cell(start), cell(start + 1 + int64(rng.Intn(60)))})
	}
	hours.Append(hours.Rows[rng.Intn(len(hours.Rows))].Clone())
	cat.Register(storage.NewTable("Hours", hours))
	flow, _ := cat.Table("Flow")
	for _, row := range flow.Rel.Rows {
		row[2], row[4] = cell(row[2].AsInt()), cell(row[4].AsInt())
	}
}

// correlation is a subquery block's link to the outer Hours tuple, drawn
// from the range-bound families: Example 2.1's two-column band, its
// suffix mirror (the conjuncts swapped), a one-sided bound under any φ
// written either way round, and a band on one base column between two
// detail columns.
func correlation(rng *rand.Rand, f string) expr.Expr {
	ops := []value.CmpOp{value.LT, value.LE, value.GT, value.GE}
	switch rng.Intn(4) {
	case 0:
		return timeWindow(f, "H")
	case 1:
		w := expr.Conjuncts(timeWindow(f, "H"))
		return expr.NewAnd(w[1], w[0])
	case 2:
		l, r := expr.C(f+".StartTime"), expr.C([]string{"H.StartInterval", "H.EndInterval"}[rng.Intn(2)])
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		return expr.NewCmp(ops[rng.Intn(len(ops))], l, r)
	}
	return expr.NewAnd(expr.NewCmp(value.LE, expr.C("H.StartInterval"), expr.C(f+".StartTime")),
		expr.NewCmp(value.GT, expr.C("H.StartInterval"), expr.C(f+".NumBytes")))
}

// randomPlan builds a Restrict over Hours with 1-3 random subquery
// predicates — EXISTS, NOT EXISTS, SOME and ALL, the last two under any
// φ — combined by random connectives, each correlated by an inequality
// (correlation). A predicate's block may carry a detail-only conjunct
// FIi.NumBytes > k — one k for every predicate in a third of the plans,
// so that coalesced conditions share it — and may nest a further EXISTS
// over User, so that both selection push-down rules have something to
// move and, in the first two predicates, a non-neighboring conjunct on
// H is pushed down.
func randomPlan(rng *rand.Rand) algebra.Node {
	return randomPlanWith(rng, correlation)
}

// randomPlanWith is randomPlan with each block correlated by corr.
func randomPlanWith(rng *rand.Rand, corr func(*rand.Rand, string) expr.Expr) algebra.Node {
	dests := []string{"167.167.167.0", "168.168.168.0", "10.0.0.1"}
	ops := []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	sharedK := int64(-1)
	if rng.Intn(3) == 0 {
		sharedK = int64(rng.Intn(100))
	}
	mkPred := func(i int) algebra.Pred {
		alias := "FI" + string(rune('0'+i))
		terms := []expr.Expr{
			expr.Eq(expr.C(alias+".DestIP"), expr.StrLit(dests[rng.Intn(len(dests))])),
			corr(rng, alias),
		}
		switch {
		case sharedK >= 0:
			terms = append(terms, expr.NewCmp(value.GT, expr.C(alias+".NumBytes"), expr.IntLit(sharedK)))
		case rng.Intn(2) == 0:
			terms = append(terms, expr.NewCmp(value.GT, expr.C(alias+".NumBytes"), expr.IntLit(int64(rng.Intn(100)))))
		}
		base := &algebra.Subquery{Source: algebra.NewScan("Flow", alias), Where: &algebra.Atom{E: expr.NewAnd(terms...)}}
		if rng.Intn(3) == 0 {
			user := "U" + string(rune('0'+i))
			userTerms := []expr.Expr{
				expr.Eq(expr.C(user+".IPAddress"), expr.C(alias+".SourceIP")),
				expr.NewCmp(value.GT, expr.C(user+".Name"), expr.StrLit("usera")),
			}
			if i < 2 {
				// Non-neighboring (Thms 3.3/3.4): H is two blocks out. A
				// third predicate's block keeps the neighbor-only shape.
				userTerms = append(userTerms, expr.NewCmp(value.LE, expr.C("H.HourDsc"), expr.IntLit(int64(1+rng.Intn(40)))))
			}
			nested := algebra.Pred(algebra.ExistsPred(&algebra.Subquery{
				Source: algebra.NewScan("User", user),
				Where:  &algebra.Atom{E: expr.NewAnd(userTerms...)},
			}))
			if rng.Intn(2) == 0 {
				nested = algebra.Not(nested)
			}
			base.Where = algebra.And(base.Where, nested)
		}
		switch rng.Intn(4) {
		case 0:
			return algebra.ExistsPred(base)
		case 1:
			return algebra.NotExistsPred(base)
		case 2:
			base.OutCol = expr.C(alias + ".NumBytes")
			return &algebra.SubPred{Kind: algebra.CmpSome, Op: ops[rng.Intn(len(ops))],
				Left: expr.C("H.StartInterval"), Sub: base}
		default:
			base.OutCol = expr.C(alias + ".StartTime")
			return &algebra.SubPred{Kind: algebra.CmpAll, Op: ops[rng.Intn(len(ops))],
				Left: expr.C("H.EndInterval"), Sub: base}
		}
	}
	n := 1 + rng.Intn(3)
	preds := make([]algebra.Pred, n)
	for i := range preds {
		preds[i] = mkPred(i)
		if rng.Intn(3) == 0 {
			preds[i] = algebra.Not(preds[i])
		}
	}
	var w algebra.Pred
	switch {
	case n == 1:
		w = preds[0]
	case rng.Intn(2) == 0:
		w = algebra.And(preds...)
	default:
		w = algebra.Or(preds...)
	}
	return algebra.NewRestrict(algebra.NewScan("Hours", "H"), w)
}

// TestRewritePreservesSubqueryFreePlans: plans without subqueries pass
// through SubqueryToGMDJ and Unnest untouched — a plain selection, and
// one plan holding every non-leaf kind.
func TestRewritePreservesSubqueryFreePlans(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(15)), 50)
	e := exec.New(cat)
	hour := expr.C("H.HourDsc")
	md := algebra.NewGMDJ(algebra.NewScan("Hours", "H"), algebra.NewScan("Flow", "F"),
		algebra.GMDJCond{Theta: timeWindow("F", "H"), Aggs: []agg.Spec{{Func: agg.CountStar, As: "n"}}})
	joined := algebra.NewJoin(algebra.InnerJoin, algebra.NewNumber(md, "rid"),
		algebra.NewAlias(algebra.NewScan("Hours", ""), "H2"), eqCols("H.HourDsc", "H2.HourDsc"))
	grouped := algebra.NewGroupBy(algebra.ProjectCols(algebra.Filter(joined, gt("n", -1)), false, "H.HourDsc", "n"),
		[]*expr.Col{hour}, []agg.Spec{{Func: agg.Sum, Arg: expr.C("n"), As: "total"}})
	allKinds := algebra.NewSort(algebra.NewDistinct(algebra.NewSetOp(algebra.UnionAll, grouped, grouped)),
		[]algebra.SortKey{{E: hour}}, -1)
	for _, plan := range []algebra.Node{algebra.Filter(algebra.NewScan("Hours", "H"), gt("H.HourDsc", 1)), allKinds} {
		a, err := e.Run(plan)
		if err != nil {
			t.Fatal(err)
		}
		rewritten, err := SubqueryToGMDJ(plan, e)
		if err != nil {
			t.Fatal(err)
		}
		unnested, err := unnest.Unnest(plan, e)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range []algebra.Node{rewritten, unnested} {
			if out.String() != plan.String() {
				t.Errorf("subquery-free plan changed:\n got  %s\n want %s", out, plan)
			}
			if b, err := e.Run(out); err != nil {
				t.Error(err)
			} else if d := a.Diff(b); d != "" {
				t.Error(d)
			}
		}
	}
}

// TestRewrittenPlanHasNoSubqueries: the output of the algorithm is a
// flat algebraic expression (the paper stresses GMDJ expressions are
// regular algebra, not nested queries).
func TestRewrittenPlanHasNoSubqueries(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(16)), 50)
	e := exec.New(cat)
	plan := paperExample23Plan()
	rewritten, err := SubqueryToGMDJ(plan, e)
	if err != nil {
		t.Fatal(err)
	}
	walkNodes(rewritten, func(n algebra.Node) {
		if r, ok := n.(*algebra.Restrict); ok && algebra.HasSubquery(r.Where) {
			t.Errorf("rewritten plan still contains subqueries: %s", r)
		}
	})
}

func TestFreeReferenceAtTopLevelErrors(t *testing.T) {
	cat := netflowCatalog(rand.New(rand.NewSource(17)), 10)
	e := exec.New(cat)
	// Subquery references qualifier Z that exists nowhere.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where:  &algebra.Atom{E: expr.Eq(expr.C("F.SourceIP"), expr.C("Z.Nope"))},
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))
	if _, err := SubqueryToGMDJ(plan, e); err == nil ||
		!strings.Contains(err.Error(), "free reference") {
		t.Errorf("unresolvable free reference should error, got %v", err)
	}
}

func countGMDJs(n algebra.Node) int {
	c := 0
	walkNodes(n, func(x algebra.Node) {
		if _, ok := x.(*algebra.GMDJ); ok {
			c++
		}
	})
	return c
}

func walkNodes(n algebra.Node, fn func(algebra.Node)) {
	fn(n)
	for _, c := range n.Children() {
		walkNodes(c, fn)
	}
}
