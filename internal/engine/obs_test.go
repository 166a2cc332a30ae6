package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/value"
)

// userExistsPlan is the hash-bound counterpart of existsPlan: users
// with a large flow, correlated by an equi-binding.
func userExistsPlan() algebra.Node {
	return algebra.NewRestrict(algebra.NewScan("User", "U"), algebra.ExistsPred(&algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.Eq(expr.C("F.SourceIP"), expr.C("U.IPAddress")),
			expr.NewCmp(value.GT, expr.C("F.NumBytes"), expr.IntLit(1000)),
		)},
	}))
}

// TestRunObservedReconciliation cross-checks the stats tree against
// the returned relation for every strategy: the root operator's
// reported cardinality must equal the result's, and the GMDJ
// operator's detail accounting must cover every pass over the detail
// relation (rows fed + rows short-circuited = detail scans × the rows
// its detail input handed on — the table's, less any block a fused
// selection's zone maps skipped) — at any degree, and when the base
// state spills. A fallback-θ plan scans once per fold range; a
// hash-bound one scans once, whatever the degree: over a detail of two
// morsels at degree 2, and under a spilling limit, it is routed — its
// key partitions walk only the rows routed to them. rows_scanned moves
// by what the Scan operators handed on, summed.
func TestRunObservedReconciliation(t *testing.T) {
	regimes := []struct {
		name         string
		degree       int
		memLimit     int64
		scans        int64 // of the fallback-θ plan. 0: however many partitions the limit forces, but more than one
		flows, users int
	}{
		{"serial", 1, 0, 1, 300, 6},
		{"2 workers", 2, 0, 2, 300, 6},
		{"4 workers", 4, 0, 4, 300, 6},
		{"spill", 1, 2048, 0, 300, 6},
		{"2 workers, routed", 2, 0, 2, 2*govern.MorselRows + 1, 6},
		{"spill, routed", 1, 2048, 0, 300, 200},
	}
	for _, r := range regimes {
		cat := datagen.Netflow(datagen.NetflowOpts{Flows: r.flows, Hours: 24, Users: r.users, Seed: 3})
		e := New(cat, withDegree(r.degree), func(c *Config) {
			if r.memLimit > 0 {
				c.MemoryLimit, c.SpillDir = r.memLimit, t.TempDir()
			}
		})
		defer e.Close()
		type planCase struct {
			name  string
			plan  algebra.Node
			scans int64
		}
		plans := []planCase{{"fallback", existsPlan(), r.scans}}
		if r.memLimit == 0 || r.users > 6 { // six users are too few to spill
			plans = append(plans, planCase{"hash-bound", userExistsPlan(), 1})
		}
		for _, pl := range plans {
			for _, s := range Strategies() {
				name := fmt.Sprintf("%s/%s/%v", r.name, pl.name, s)
				scannedBefore := e.Metrics()["rows_scanned"]
				rel, root, err := e.RunObserved(context.Background(), pl.plan, s)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got, want := e.Metrics()["rows_scanned"]-scannedBefore, scanRows(root); got != want {
					t.Errorf("%s: rows_scanned moved by %d, the Scan operators handed on %d:\n%s", name, got, want, obs.FormatTree(root))
				}
				if root == nil {
					t.Fatalf("%s: no stats tree", name)
				}
				if root.Rows != int64(rel.Len()) {
					t.Errorf("%s: root rows = %d, result rows = %d", name, root.Rows, rel.Len())
				}
				if s != GMDJ && s != GMDJOpt {
					continue
				}
				gm := root.Find("GMDJ")
				if gm == nil {
					t.Fatalf("%s: stats tree lacks a GMDJ operator:\n%s", name, obs.FormatTree(root))
				}
				scans := gm.Get("detail_scans")
				if scans == 0 {
					scans = 1 // a single scan goes unsaid
				}
				if pl.scans > 0 && scans != pl.scans {
					t.Errorf("%s: detail_scans = %d, want %d:\n%s", name, scans, pl.scans, obs.FormatTree(root))
				}
				if pl.scans == 0 && (scans < 2 || scans != 1+gm.Get("extra_detail_scans")) {
					t.Errorf("%s: detail_scans = %d, want 1 + extra_detail_scans(%d) > 1:\n%s",
						name, scans, gm.Get("extra_detail_scans"), obs.FormatTree(root))
				}
				if pl.scans == 1 && r.degree > 1 && r.flows > 2*govern.MorselRows && gm.Get("workers") != int64(r.degree) {
					t.Errorf("%s: workers = %d, want the fold cut into %d key partitions:\n%s", name, gm.Get("workers"), r.degree, obs.FormatTree(root))
				}
				if r.memLimit > 0 && gm.Get("spill_partitions") == 0 {
					t.Errorf("%s: nothing spilled:\n%s", name, obs.FormatTree(root))
				}
				handed := gm.Children[1].Rows // base first, detail second
				if handed > int64(r.flows) || r.flows < 4096 && handed != int64(r.flows) {
					t.Errorf("%s: the detail input handed on %d rows of %d (one block has nothing to skip)", name, handed, r.flows)
				}
				fed, skipped := gm.Get("detail_rows"), gm.Get("short_circuit_rows")
				if fed+skipped != scans*handed {
					t.Errorf("%s: detail_rows(%d) + short_circuit_rows(%d) != detail_scans(%d) × %d:\n%s",
						name, fed, skipped, scans, handed, obs.FormatTree(root))
				}
				if s == GMDJ && skipped != 0 {
					t.Errorf("%s: basic gmdj has no completion, short_circuit_rows = %d", name, skipped)
				}
				if s == GMDJOpt && gm.Get("completed") == 0 {
					t.Errorf("%s: gmdj-opt should retire tuples by completion:\n%s", name, obs.FormatTree(root))
				}
			}
		}
		e.Close()
	}
}

// scanRows sums the output cardinalities of a stats tree's Scan
// operators.
func scanRows(op *obs.Op) int64 {
	var n int64
	if strings.HasPrefix(op.Label, "Scan ") {
		n = op.Rows
	}
	for _, ch := range op.Children {
		n += scanRows(ch)
	}
	return n
}

// TestExplainDetailPassWorkers: over a detail of two morsels or more a
// routed GMDJ at degree 2 reports the detail pass's workers beside
// workers=2 (its fold is two key partitions, each walking the rows the
// pass routed to it: still one unsaid scan, every row fed or skipped
// once); at degree 1 there is no pass and no counter, and one fold.
func TestExplainDetailPassWorkers(t *testing.T) {
	const flows = 2*govern.MorselRows + 1
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: flows, Hours: 2, Users: 6, Seed: 3})
	for degree, want := range map[int]int64{1: 0, 2: 2} {
		e := New(cat, withDegree(degree))
		_, root, err := e.RunObserved(context.Background(), userExistsPlan(), GMDJOpt)
		e.Close()
		if err != nil {
			t.Fatal(err)
		}
		gm := root.Find("GMDJ")
		if gm.Get("detail_pass_workers") != want || gm.Get("workers") != max(want, 1) || gm.Get("detail_scans") != 0 ||
			gm.Get("detail_rows")+gm.Get("short_circuit_rows") != flows {
			t.Errorf("degree %d: want detail_pass_workers=%d workers=%d and one unsaid scan of %d rows:\n%s", degree, want, max(want, 1), flows, obs.FormatTree(root))
		}
	}
}

// TestExplainAnalyzeAgreesWithExplain: both renderings must name the
// same operators in the same tree positions (shared algebra.Describe),
// so a plan read from EXPLAIN can be matched line-by-line against its
// EXPLAIN ANALYZE run.
func TestExplainAnalyzeAgreesWithExplain(t *testing.T) {
	e := testEngine(t)
	plan := existsPlan()
	for _, s := range Strategies() {
		plain, err := e.Explain(plan, s)
		if err != nil {
			t.Fatal(err)
		}
		analyzed, err := e.ExplainAnalyze(context.Background(), plan, s)
		if err != nil {
			t.Fatal(err)
		}
		pl := strings.Split(strings.TrimRight(plain, "\n"), "\n")
		al := strings.Split(strings.TrimRight(analyzed, "\n"), "\n")
		if len(pl) != len(al) {
			t.Fatalf("%v: line counts differ\nEXPLAIN:\n%s\nANALYZE:\n%s", s, plain, analyzed)
		}
		for i := 1; i < len(pl); i++ { // skip the strategy header
			label := strings.TrimRight(pl[i], " ")
			got := al[i]
			// The analyzed line is the plain line plus a " (...)" suffix.
			if got != label && !strings.HasPrefix(got, label+" (") {
				t.Errorf("%v line %d: %q does not extend %q", s, i, got, label)
			}
		}
	}
}

const goldenExplain = `strategy: gmdj-opt
Project [H.HourDsc, H.StartInterval, H.EndInterval]
  Select [cnt1 > 0]
    GMDJ +completion+freeze (1 conditions)
      cond: (count(*) -> cnt1 | θ: (F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval))
      Scan Hours->H
      Select [F.Protocol = 'FTP']
        Scan Flow->F
`

const goldenAnalyze = `strategy: gmdj-opt (analyzed)
Project [H.HourDsc, H.StartInterval, H.EndInterval] (time=X act=4 est=1 bytes=480 fused=1)
  Select [cnt1 > 0] (time=X act=4 est=1 fused=1)
    GMDJ +completion+freeze (1 conditions) (time=X act=4 est=3 workers=1 detail_rows=33 probes=4 matches=4 completed=4 short_circuit_rows=267 fallback_conds=1)
      cond: (count(*) -> cnt1 | θ: (F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval))
      Scan Hours->H (time=X act=4 est=4 bytes=480)
      Select [F.Protocol = 'FTP'] (time=X rows=300 bytes=63000 fused=1 segments_total=1)
        Scan Flow->F (time=X act=300 est=300 bytes=63000)
`

// goldenAnalyzeTwoWorkers is goldenAnalyze at degree 2: each worker
// owns two of the four hours and scans the detail for them, so the
// GMDJ line says detail_scans=2 and its detail counters sum both scans.
const goldenAnalyzeTwoWorkers = `strategy: gmdj-opt (analyzed)
Project [H.HourDsc, H.StartInterval, H.EndInterval] (time=X act=4 est=1 bytes=480 fused=1)
  Select [cnt1 > 0] (time=X act=4 est=1 fused=1)
    GMDJ +completion+freeze (1 conditions) (time=X act=4 est=3 workers=2 detail_scans=2 detail_rows=64 probes=4 matches=4 completed=4 short_circuit_rows=536 fallback_conds=1 worker0_rows=31 worker1_rows=33)
      cond: (count(*) -> cnt1 | θ: (F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval))
      Scan Hours->H (time=X act=4 est=4 bytes=480)
      Select [F.Protocol = 'FTP'] (time=X rows=300 bytes=63000 fused=1 segments_total=1)
        Scan Flow->F (time=X act=300 est=300 bytes=63000)
`

const goldenAnalyzeNative = `strategy: native (analyzed)
Select [∃(σ[(F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval AND F.Protocol = 'FTP')](Flow->F))] (time=X act=4 est=2 bytes=480 workers=1)
  Scan Hours->H (time=X act=4 est=4 bytes=480)
  Scan Flow->F (time=X act=300 est=300 bytes=63000)
`

// TestExplainGolden pins the exact EXPLAIN / EXPLAIN ANALYZE text on
// the deterministic 300-flow catalog (timings normalized): counters,
// cardinalities, and tree shape are all part of the contract.
func TestExplainGolden(t *testing.T) {
	e := testEngine(t, withDegree(1))
	plan := existsPlan()

	plain, err := e.Explain(plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if plain != goldenExplain {
		t.Errorf("EXPLAIN drifted:\n--- got ---\n%s--- want ---\n%s", plain, goldenExplain)
	}

	analyzed, err := e.ExplainAnalyze(context.Background(), plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.NormalizeTimings(analyzed); got != goldenAnalyze {
		t.Errorf("EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenAnalyze)
	}

	native, err := e.ExplainAnalyze(context.Background(), plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.NormalizeTimings(native); got != goldenAnalyzeNative {
		t.Errorf("native EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenAnalyzeNative)
	}

	analyzed, err = testEngine(t, withDegree(2)).ExplainAnalyze(context.Background(), plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.NormalizeTimings(analyzed); got != goldenAnalyzeTwoWorkers {
		t.Errorf("two-worker EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", got, goldenAnalyzeTwoWorkers)
	}
}

// TestTracerRecordsQuerySpans: with a tracer attached, a plain
// RunContext records operator spans; without one, it records nothing
// and costs nothing.
func TestTracerRecordsQuerySpans(t *testing.T) {
	e := testEngine(t)
	plan := existsPlan()

	if _, err := e.RunContext(context.Background(), plan, GMDJOpt); err != nil {
		t.Fatal(err)
	}
	if e.Tracer().Len() != 0 {
		t.Fatal("no tracer attached, nothing should record")
	}

	tr := obs.NewTracer(1 << 10)
	e.SetTracer(tr)
	if _, err := e.RunContext(context.Background(), plan, GMDJOpt); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("tracer attached but no spans recorded")
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"displayTimeUnit":"ms"`, `"ph":"X"`, "GMDJ"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("trace JSON lacks %q:\n%s", want, b.String())
		}
	}
}
