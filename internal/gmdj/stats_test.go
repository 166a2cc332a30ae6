package gmdj

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// statsWorkload builds a completion-free workload: without completion
// no base tuple retires early, so the counters' relationship to the
// serial run is exact — matches split perfectly across base ranges,
// and every worker feeds the whole detail relation. (With completion
// the counters legitimately diverge — workers short-circuit at
// range-local points.)
func statsWorkload(detailRows int) (*relation.Relation, *relation.Relation, []algebra.GMDJCond) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 200; i++ {
		base.Append(relation.Tuple{value.Int(i % 50)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < detailRows; i++ {
		detail.Append(relation.Tuple{value.Int(rng.Int63n(60)), value.Int(rng.Int63n(1000))})
	}
	conds := []algebra.GMDJCond{
		{
			Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
			Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
		},
		{
			// Bindingless condition exercises the fallback-scan counters.
			Theta: expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.v")),
			Aggs:  []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}},
		},
	}
	return base, detail, conds
}

// TestStatsParitySerialParallel pins the base-sharded counter
// contract against serial evaluation (per-worker locals merged at
// drain — no lost or double-counted updates): matches, completions and
// probes agree exactly (every (base, detail, θ) triple is evaluated by
// exactly one worker, and each worker's index holds only the tuples it
// owns), and detail rows multiply by the effective worker count (each
// worker runs the full detail scan). Run under -race this also proves
// the merge is race-free: workers write only their own state's
// counters, and WorkerRows is recorded after the pool drains.
func TestStatsParitySerialParallel(t *testing.T) {
	base, detail, conds := statsWorkload(8000)

	var serial Stats
	outS, err := Evaluate(base, detail, conds, Options{Stats: &serial})
	if err != nil {
		t.Fatal(err)
	}
	if serial.WorkerRows != nil {
		t.Fatalf("serial WorkerRows = %v, want nil", serial.WorkerRows)
	}

	for _, workers := range []int{2, 4, 8} {
		var par Stats
		// A live tracer makes the -race run cover concurrent span
		// recording from the worker goroutines too.
		outP, err := Evaluate(base, detail, conds, Options{
			Stats: &par, Workers: workers, Tracer: obs.NewTracer(1 << 10),
		})
		if err != nil {
			t.Fatal(err)
		}
		if outP.String() != outS.String() {
			t.Fatalf("workers=%d: output differs from serial:\n%s", workers, outS.Diff(outP))
		}
		effective := int64(len(par.WorkerRows))
		if effective < 2 {
			t.Fatalf("workers=%d: WorkerRows = %v, want at least two workers", workers, par.WorkerRows)
		}
		if serial.DetailScans != 1 || par.DetailScans != effective {
			t.Fatalf("workers=%d: DetailScans = %d (serial %d), want %d (1): one scan per worker",
				workers, par.DetailScans, serial.DetailScans, effective)
		}
		if par.DetailRows != serial.DetailRows*effective {
			t.Fatalf("workers=%d: DetailRows = %d, want %d×%d (every worker scans the full detail)",
				workers, par.DetailRows, effective, serial.DetailRows)
		}
		if par.Matches != serial.Matches || par.Completed != serial.Completed ||
			par.ShortCircuitRows != serial.ShortCircuitRows || par.Probes != serial.Probes {
			t.Fatalf("workers=%d: counters diverge:\nserial   %+v\nparallel %+v", workers, serial, par)
		}
		var sum int64
		for _, r := range par.WorkerRows {
			sum += r
		}
		if sum != par.DetailRows {
			t.Fatalf("workers=%d: sum(WorkerRows) = %d, DetailRows = %d", workers, sum, par.DetailRows)
		}
	}
}

// neAllShape is Fig 4's "<> ALL" program over A(key, val) and B(key,
// val) of nDetail rows, every 500th b.val NULL when nulls is set: one
// condition indexed on val with a <> residual, and the two NULL
// counterexample conditions (a.val IS NULL, b.val IS NULL), each
// retiring a tuple on its first match.
func neAllShape(nDetail int, nulls bool) (*relation.Relation, *relation.Relation, []algebra.GMDJCond, *algebra.CompletionInfo) {
	rel := func(q string) *relation.Relation {
		return relation.New(relation.NewSchema(
			relation.Column{Qualifier: q, Name: "key", Type: value.KindInt},
			relation.Column{Qualifier: q, Name: "val", Type: value.KindInt},
		))
	}
	rng := rand.New(rand.NewSource(4))
	base, detail := rel("A"), rel("B")
	for i := int64(0); i < 400; i++ {
		base.Append(relation.Tuple{value.Int(i), value.Int(rng.Int63n(100))})
	}
	for i := 0; i < nDetail; i++ {
		val := value.Int(rng.Int63n(120))
		if nulls && i%500 == 499 {
			val = value.Null
		}
		detail.Append(relation.Tuple{value.Int(rng.Int63n(400)), val})
	}
	ne := expr.NewCmp(value.NE, expr.C("B.key"), expr.C("A.key"))
	var conds []algebra.GMDJCond
	comp := &algebra.CompletionInfo{FreezeTrue: true}
	var kids []*algebra.BoolTree
	for i, c := range []expr.Expr{
		expr.Eq(expr.C("A.val"), expr.C("B.val")),
		expr.NewIsNull(expr.C("A.val"), false),
		expr.NewIsNull(expr.C("B.val"), false),
	} {
		conds = append(conds, algebra.GMDJCond{Theta: expr.NewAnd(ne, c), Aggs: []agg.Spec{{Func: agg.CountStar, As: fmt.Sprintf("cnt%d", i)}}})
		comp.Atoms = append(comp.Atoms, algebra.CompletionAtom{Cond: i, Kind: algebra.AtomZero})
		kids = append(kids, algebra.Leaf(i))
	}
	comp.Tree = algebra.AndTree(kids...)
	return base, detail, conds, comp
}

// TestStatsParityIndexedBesideFallback: a "<> ALL" program folds by base
// range, and each range probes only its own index entries, so at degrees
// 2 and 4, resident and spilled, it probes no more than at degree 1, with
// the same output, matches and completions. A condition whose
// detail-only conjunct no row passes (b.val IS NULL on NULL-free data)
// gets no scan list once the detail pass has run; one some row passes
// gets its list.
func TestStatsParityIndexedBesideFallback(t *testing.T) {
	for _, nulls := range []bool{false, true} {
		base, detail, conds, comp := neAllShape(2*govern.MorselRows+1, nulls)
		var want string
		for _, spilled := range []bool{false, true} {
			var ref Stats
			for _, workers := range []int{1, 2, 4} {
				var stats Stats
				opts := Options{Completion: comp, Workers: workers, Stats: &stats}
				release := func() {}
				if spilled {
					store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
					if err != nil {
						t.Fatal(err)
					}
					opts.Spill = store
					opts.Mem, release = tinyTracker(t)
				}
				out, err := Evaluate(base, detail, conds, opts)
				release()
				name := fmt.Sprintf("nulls=%v/spilled=%v/workers=%d", nulls, spilled, workers)
				switch {
				case err != nil:
					t.Fatalf("%s: %v", name, err)
				case spilled && stats.SpillPartitions == 0:
					t.Fatalf("%s: nothing spilled", name)
				case want == "":
					want = out.String()
				case out.String() != want:
					t.Errorf("%s: output differs from resident Workers: 1", name)
				}
				if workers == 1 {
					ref = stats
				} else if stats.Probes > ref.Probes || stats.Matches != ref.Matches || stats.Completed != ref.Completed || len(stats.WorkerRows) < 2 {
					t.Errorf("%s: probes/matches/completed %d/%d/%d over %d ranges; Workers: 1 %d/%d/%d",
						name, stats.Probes, stats.Matches, stats.Completed, len(stats.WorkerRows), ref.Probes, ref.Matches, ref.Completed)
				}
			}
		}
		p, err := compile(base, detail, conds, Options{Completion: comp, Workers: 2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.detailPass(); err != nil {
			t.Fatal(err)
		}
		s, err := p.newState(&partition{rows: base.Rows}, 0, len(base.Rows), p.newResult(len(base.Rows)))
		if err != nil {
			t.Fatal(err)
		}
		if (s.condScan[2] == nil) == nulls || len(s.condScan[1]) != 0 {
			t.Errorf("nulls=%v: b.val IS NULL's scan list %d long (nil %v), a.val IS NULL's %d long", nulls, len(s.condScan[2]), s.condScan[2] == nil, len(s.condScan[1]))
		}
	}
}

// TestStatsMerge covers the Merge arithmetic, including WorkerRows
// concatenation and nil tolerance.
func TestStatsMerge(t *testing.T) {
	dst := Stats{DetailRows: 1, Probes: 2, Matches: 3, Completed: 4, ShortCircuitRows: 5, FallbackConds: 1, WorkerRows: []int64{7}}
	src := Stats{DetailRows: 10, Probes: 20, Matches: 30, Completed: 40, ShortCircuitRows: 50, FallbackConds: 2, WorkerRows: []int64{8, 9}}
	dst.Merge(&src)
	want := Stats{DetailRows: 11, Probes: 22, Matches: 33, Completed: 44, ShortCircuitRows: 55, FallbackConds: 3, WorkerRows: []int64{7, 8, 9}}
	if dst.DetailRows != want.DetailRows || dst.Probes != want.Probes || dst.Matches != want.Matches ||
		dst.Completed != want.Completed || dst.ShortCircuitRows != want.ShortCircuitRows ||
		dst.FallbackConds != want.FallbackConds || len(dst.WorkerRows) != 3 {
		t.Fatalf("Merge = %+v, want %+v", dst, want)
	}
	var nilStats *Stats
	nilStats.Merge(&src) // must not panic
	dst.Merge(nil)       // must not panic
}

// TestShortCircuitStopsScan verifies the strongest §4.2 outcome: when
// completion decides every base tuple, the remaining detail rows are
// skipped and accounted as ShortCircuitRows.
func TestShortCircuitStopsScan(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 10; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	// The first 10 rows match every base key once; the next 990 are
	// dead work once all base tuples are decided.
	for i := int64(0); i < 1000; i++ {
		detail.Append(relation.Tuple{value.Int(i % 10)})
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	comp := &algebra.CompletionInfo{
		// NOT EXISTS shape: one match decides the base tuple (dropped).
		Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:  &algebra.BoolTree{Op: algebra.BoolLeaf, Leaf: 0},
	}
	var stats Stats
	out, err := Evaluate(base, detail, conds, Options{Completion: comp, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("rows = %d, want 0 (every base tuple dropped)", out.Len())
	}
	if stats.Completed != 10 {
		t.Fatalf("Completed = %d, want 10", stats.Completed)
	}
	if stats.ShortCircuitRows == 0 {
		t.Fatal("ShortCircuitRows = 0, want > 0 (scan must stop early)")
	}
	if stats.DetailRows+stats.ShortCircuitRows != 1000 {
		t.Fatalf("DetailRows(%d) + ShortCircuitRows(%d) != 1000", stats.DetailRows, stats.ShortCircuitRows)
	}
	// Serial evaluation stops at exactly the deciding row.
	if stats.DetailRows != 10 {
		t.Fatalf("DetailRows = %d, want 10", stats.DetailRows)
	}
}

// TestDetailPassSpans: the tracer gets a span per detail-pass worker
// that claimed a morsel, beside a scan span per key partition of a
// routed fold (two at Workers: 2), which together own the whole base.
func TestDetailPassSpans(t *testing.T) {
	base, _ := packedCorpus()
	tracer := obs.NewTracer(1 << 10)
	var stats Stats
	if _, err := Evaluate(base, passDetail(2*govern.MorselRows+1), packedConds(), Options{Workers: 2, Stats: &stats, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	pass, scans := strings.Count(buf.String(), `"detail pass worker `), regexp.MustCompile(`"worker [01] base \[0:(\d+)\)"`).FindAllStringSubmatch(buf.String(), -1)
	owned := 0
	for _, m := range scans {
		n, _ := strconv.Atoi(m[1])
		owned += n
	}
	if stats.DetailPassWorkers != 2 || pass < 1 || pass > 2 || len(scans) != 2 || owned != 40 || tracer.Len() != pass+len(scans) {
		t.Errorf("DetailPassWorkers = %d with %d pass spans and %d scan spans owning %d tuples of %d events; want 2, 1–2, 2, 40 and no others:\n%s",
			stats.DetailPassWorkers, pass, len(scans), owned, tracer.Len(), buf.String())
	}
}

// TestStateAllocsFlat: the per-tuple state is cut from slabs, so what
// Evaluate allocates does not grow with the base: a constant per base
// range (the slabs, the flags, the scan lists), at one range and at
// four. The θ is a fallback (no index buckets per key) and completion
// retires every tuple on the first detail row (no output rows), which
// leaves the state as the only thing |base| could multiply.
func TestStateAllocsFlat(t *testing.T) {
	detail := relation.New(relation.NewSchema(relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt}))
	for i := int64(0); i < 16; i++ {
		detail.Append(relation.Tuple{value.Int(i)})
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.NewCmp(value.NE, expr.C("B.k"), expr.C("R.v")),
		Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
			{Func: agg.Min, Arg: expr.C("R.v"), As: "lo"}, {Func: agg.Avg, Arg: expr.C("R.v"), As: "a"}},
	}}
	comp := &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}
	allocs := func(nBase, workers int) float64 {
		base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
		for i := 0; i < nBase; i++ {
			base.Append(relation.Tuple{value.Int(int64(-1 - i))})
		}
		return testing.AllocsPerRun(5, func() {
			out, err := Evaluate(base, detail, conds, Options{Completion: comp, Workers: workers})
			if err != nil || out.Len() != 0 {
				t.Fatalf("Evaluate = %d rows, %v; want every tuple retired", out.Len(), err)
			}
		})
	}
	for _, workers := range []int{1, 4} {
		small, large := allocs(100, workers), allocs(10_000, workers)
		if large > small+100 { // a hundredth of an allocation a tuple: room for the runtime's own, none for per-tuple state
			t.Errorf("workers=%d: %v allocations over 10 000 base tuples, %v over 100: per-tuple state is not cut from slabs", workers, large, small)
		}
	}
}
