package gmdj

import (
	"fmt"
	"hash/fnv"
	"math"
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
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// chunks lists base positions [0,n) as consecutive partitions of at
// most size positions each — the contiguous-chunk regime, each chunk
// indexed and scanned on its own.
func chunks(size int) func(*relation.Relation) []partition {
	return func(base *relation.Relation) []partition {
		var parts []partition
		for lo := 0; lo < len(base.Rows); lo += size {
			hi := lo + size
			if hi > len(base.Rows) {
				hi = len(base.Rows)
			}
			idx := make([]int32, 0, hi-lo)
			for bi := lo; bi < hi; bi++ {
				idx = append(idx, int32(bi))
			}
			parts = append(parts, partition{rows: base.Rows[lo:hi], idx: idx})
		}
		return parts
	}
}

// hashPrefix lists base positions by the top two bits of the tuple
// hash — the spill regime's split, without the files.
func hashPrefix(base *relation.Relation) []partition {
	parts := make([]partition, 4)
	for bi, row := range base.Rows {
		pt := &parts[row.Hash()>>62]
		pt.rows = append(pt.rows, row)
		pt.idx = append(pt.idx, int32(bi))
	}
	return parts
}

func wholeBase(base *relation.Relation) []partition {
	return []partition{{rows: base.Rows}}
}

// evalParts runs the driver over the given partitions of base, one
// after the other, and emits once.
func evalParts(t *testing.T, base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options, split func(*relation.Relation) []partition) *relation.Relation {
	t.Helper()
	p, err := compile(base, detail, conds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.detailPass(); err != nil {
		t.Fatal(err)
	}
	out := result{decided: make([]int8, len(base.Rows)), accs: make([][]agg.Accumulator, len(base.Rows))}
	for _, part := range split(base) {
		if err := p.evalPartition(part, out); err != nil {
			t.Fatal(err)
		}
	}
	rel, err := p.emit(out)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestPartitionEquivalence: however the base is partitioned — one
// range, worker ranges, consecutive chunks, hash-prefix position
// lists — the driver produces the single-partition result, in base
// order, with or without completion, through the hash index or the
// fallback scan; and every partitioning keeps the counter invariant
// fed + skipped == scans × |detail|.
func TestPartitionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	newBase := func(n int) *relation.Relation {
		base := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "B", Name: "id", Type: value.KindInt},
			relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		))
		for i := 0; i < n; i++ {
			base.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(rng.Intn(30)))})
		}
		return base
	}
	base := newBase(137)
	detailSchema := relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "f", Type: value.KindFloat},
		relation.Column{Qualifier: "R", Name: "tag", Type: value.KindString},
	)
	detail := relation.New(detailSchema)
	for i := 0; i < 2000; i++ {
		detail.Append(relation.Tuple{value.Int(int64(5 + rng.Intn(20))), value.Int(int64(rng.Intn(100))),
			value.Float(float64(rng.Intn(200)) / 2), value.Str([]string{"x", "y", "z"}[rng.Intn(3)])})
	}
	aggs := []agg.Spec{
		{Func: agg.CountStar, As: "cnt"},
		{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
	}
	// Base keys span 0–29 and detail keys 5–24, so under every θ some base
	// tuples match and some never do: completion both retires and keeps.
	bind, below := expr.Eq(expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k"))
	type namedTheta struct {
		name  string
		theta expr.Expr
	}
	thetas := []namedTheta{
		{"indexed", bind},
		// An INT literal against the FLOAT column, a STRING conjunct and a
		// conjunct no kernel takes between them; a column-to-column
		// residual behind the probe; a range θ with a base-only conjunct.
		{"indexed, detail conjuncts", expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.f"), expr.IntLit(50)),
			expr.NewCmp(value.GE, expr.NewArith(expr.OpSub, expr.C("R.v"), expr.IntLit(10)), expr.IntLit(0)), expr.Eq(expr.C("R.tag"), expr.StrLit("x")))},
		{"indexed, column residual", expr.NewAnd(bind, expr.NewCmp(value.LT, expr.C("B.id"), expr.C("R.f")))},
		{"fallback, base-only conjunct", expr.NewAnd(below, expr.NewCmp(value.GE, expr.C("B.id"), expr.IntLit(40)), expr.NewCmp(value.LT, expr.C("R.f"), expr.IntLit(30)))},
	}
	// One-sided ranges, every φ written both ways round; duplicate keys on
	// both sides put strict and non-strict bounds at equal keys.
	for _, op := range []value.CmpOp{value.LT, value.LE, value.GT, value.GE} {
		thetas = append(thetas,
			namedTheta{"range B.k " + op.String() + " R.k", expr.NewCmp(op, expr.C("B.k"), expr.C("R.k"))},
			namedTheta{"range R.k " + op.String() + " B.k", expr.NewCmp(op, expr.C("R.k"), expr.C("B.k"))})
	}
	// The single-partition reference per θ, recorded at the parent of the
	// range-bound class, where every fallback θ scanned its whole list.
	golden := map[string]golden{
		"indexed":                      {0x3c81b6aaaeb58427, 28749},
		"indexed, detail conjuncts":    {0x7b06654cce3b1797, 4395},
		"indexed, column residual":     {0x1d529f83a18bc300, 28749},
		"fallback, base-only conjunct": {0x1c6e55cdaf27ad67, 78791},
		"range B.k < R.k":              {0x7b2a4d2857d72311, 387372},
		"range R.k < B.k":              {0xf40c61a5e2d7f17a, 374344},
		"range B.k <= R.k":             {0x448fe1630e579334, 363642},
		"range R.k <= B.k":             {0x4c8264ffba0d592c, 350380},
		"range B.k > R.k":              {0xf40c61a5e2d7f17a, 374344},
		"range R.k > B.k":              {0x7b2a4d2857d72311, 387372},
		"range B.k >= R.k":             {0x4c8264ffba0d592c, 350380},
		"range R.k >= B.k":             {0x448fe1630e579334, 363642},
	}
	lines := map[string]*strings.Builder{}
	for _, th := range thetas {
		lines[th.name] = new(strings.Builder)
	}
	completions := []struct {
		name string
		comp *algebra.CompletionInfo
	}{
		{"off", nil},
		{"on", &algebra.CompletionInfo{
			Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
			Tree:  algebra.Leaf(0),
		}},
		{"on+freeze", &algebra.CompletionInfo{
			Atoms:      []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomNonZero}},
			Tree:       algebra.Leaf(0),
			FreezeTrue: true,
		}},
	}
	partitionings := []struct {
		name    string
		base    *relation.Relation
		detail  *relation.Relation
		workers int
		split   func(*relation.Relation) []partition
	}{
		{"one range", base, detail, 1, wholeBase},
		{"4 worker ranges", base, detail, 4, wholeBase},
		{"hash-prefix lists", base, detail, 1, hashPrefix},
		{"hash-prefix lists x 4 worker ranges", base, detail, 4, hashPrefix},
		{"chunks of 1", base, detail, 1, chunks(1)},
		{"chunks of 7", base, detail, 1, chunks(7)},
		{"chunks of 64", base, detail, 1, chunks(64)},
		{"chunks of 136", base, detail, 1, chunks(136)},
		{"chunks of 137", base, detail, 1, chunks(137)},
		{"chunks of 500 > |base|", base, detail, 1, chunks(500)},
		{"empty base", newBase(0), detail, 4, wholeBase},
		{"empty detail, chunks of 4", newBase(25), relation.New(detailSchema), 1, chunks(4)},
	}
	for _, pt := range partitionings {
		for _, th := range thetas {
			for _, c := range completions {
				t.Run(fmt.Sprintf("%s/%s/completion %s", pt.name, th.name, c.name), func(t *testing.T) {
					conds := []algebra.GMDJCond{{Theta: th.theta, Aggs: aggs}}
					var ref Stats
					want, err := Evaluate(pt.base, pt.detail, conds, Options{Completion: c.comp, Stats: &ref})
					if err != nil {
						t.Fatal(err)
					}
					if pt.name == "one range" {
						lines[th.name].WriteString(goldenLine("completion "+c.name, want, &ref))
					}
					if c.name == "on" && pt.base == base && (want.Len() == 0 || want.Len() == len(base.Rows)) {
						t.Fatalf("reference keeps %d of %d base tuples; completion must both drop and keep", want.Len(), len(base.Rows))
					}
					var stats Stats
					got := evalParts(t, pt.base, pt.detail, conds, Options{Completion: c.comp, Workers: pt.workers, Stats: &stats}, pt.split)
					if d := want.Diff(got); d != "" {
						t.Errorf("differs from the single-partition result: %s", d)
					}
					last := int64(-1)
					for i, row := range got.Rows {
						if id := row[0].AsInt(); id <= last {
							t.Fatalf("row %d out of base order: id %d after %d", i, id, last)
						} else {
							last = id
						}
					}
					if fed, skipped, all := stats.DetailRows, stats.ShortCircuitRows, stats.DetailScans*int64(len(pt.detail.Rows)); fed+skipped != all {
						t.Errorf("DetailRows(%d) + ShortCircuitRows(%d) != DetailScans(%d) × |detail|(%d)", fed, skipped, stats.DetailScans, len(pt.detail.Rows))
					}
				})
			}
		}
	}
	for _, th := range thetas {
		checkGolden(t, th.name, lines[th.name], golden)
	}
}

// passDetail builds R(k, tag, v, f) with n rows: keys 0..19 with every
// 13th NULL, tags alternating, v cycling below 100, f in halves below 100
// with every 11th NULL and every 17th otherwise NaN.
func passDetail(n int) *relation.Relation {
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "tag", Type: value.KindString},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "f", Type: value.KindFloat},
	))
	for i := 0; i < n; i++ {
		k, f := value.Int(int64(i*7%20)), value.Float(float64(i*37%200)/2)
		if i%13 == 0 {
			k = value.Null
		}
		if i%11 == 0 {
			f = value.Null
		} else if i%17 == 0 {
			f = value.Float(math.NaN())
		}
		detail.Append(relation.Tuple{k, value.Str([]string{"even", "odd"}[i%2]), value.Int(int64(i * 31 % 100)), f})
	}
	return detail
}

// goldenLine renders one evaluation as the evaluator-independent facts
// the goldens pin: a hash of the output and the five data counters.
func goldenLine(name string, out *relation.Relation, s *Stats) string {
	h := fnv.New64a()
	h.Write([]byte(out.String()))
	return fmt.Sprintf("%s out=%016x detail_rows=%d probes=%d matches=%d completed=%d short_circuit_rows=%d\n",
		name, h.Sum64(), s.DetailRows, s.Probes, s.Matches, s.Completed, s.ShortCircuitRows)
}

// golden pins one shape's golden lines as the fallback scan produced
// them before θ could be range-bound: h hashes the lines without their
// probes= fields, and probes is their sum then, which visiting a sorted
// run instead of the whole scan list may lower but never raise.
type golden struct {
	h      uint64
	probes int64
}

var probesField = regexp.MustCompile(` probes=(\d+)`)

// checkGolden compares one shape's golden lines with the recorded
// golden; -v prints the lines for a diff.
func checkGolden(t *testing.T, name string, lines *strings.Builder, want map[string]golden) {
	t.Helper()
	var got golden
	for _, m := range probesField.FindAllStringSubmatch(lines.String(), -1) {
		n, _ := strconv.ParseInt(m[1], 10, 64)
		got.probes += n
	}
	h := fnv.New64a()
	h.Write([]byte(probesField.ReplaceAllString(lines.String(), "")))
	if got.h = h.Sum64(); got.h != want[name].h || got.probes > want[name].probes {
		t.Errorf("%s: results or counters moved off the fallback scan's: got {%#x, %d}, want {%#x, ≤ %d}",
			name, got.h, got.probes, want[name].h, want[name].probes)
		t.Log(lines.String())
	}
}

// TestDetailPassEquivalence: at every detail size around the morsel
// edges, every degree, with the base resident or spilled, evaluation
// returns the Workers: 1 answer with the Workers: 1 counters — the
// detail pass (which runs only at two morsels or more and Workers > 1)
// changes who computes the per-row work, never what the fold sees. A
// hash-bound program scans the detail once per resident partition and
// probes the same buckets at every degree; a fallback θ beside it
// shards the fold and keeps the counter invariant. The last detail is a
// window into a larger table's rows, which is what a fused, zone-pruned
// detail scan hands over (exec.fusedDetail).
func TestDetailPassEquivalence(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "id", Type: value.KindInt},
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < 64; i++ {
		base.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(i * 11 % 30))})
	}
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	count := []agg.Spec{{Func: agg.CountStar, As: "cnt"}}
	exists := func(atoms ...int) *algebra.CompletionInfo {
		c := &algebra.CompletionInfo{FreezeTrue: true}
		kids := make([]*algebra.BoolTree, len(atoms))
		for i, cond := range atoms {
			c.Atoms = append(c.Atoms, algebra.CompletionAtom{Cond: cond, Kind: algebra.AtomNonZero})
			kids[i] = algebra.Leaf(i)
		}
		c.Tree = algebra.AndTree(kids...)
		return c
	}
	shapes := []struct {
		name      string
		conds     []algebra.GMDJCond
		comp      *algebra.CompletionInfo
		hashBound bool
	}{
		{"no detail predicate", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.v"), As: "a"}}},
		}, nil, true},
		{"one detail predicate", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
		}, exists(0), true},
		{"shared key, two predicates", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("odd")), expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(30))), Aggs: count},
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("even")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(70))), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt2"}}},
		}, exists(0, 1), true},
		{"NULL keys", []algebra.GMDJCond{
			{Theta: bind, Aggs: count},
			{Theta: expr.NewAnd(bind, expr.NewIsNull(expr.C("R.k"), false)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "nulls"}}},
		}, nil, true},
		{"fallback beside hash-bound", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(10))),
				Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, nil, false},
		// What θ's evaluator sees at each of its sites: an INT literal beside
		// a FLOAT column, a STRING conjunct, a conjunct no kernel takes
		// between two that one does, a column-to-column residual behind the
		// hash probe, and a fallback θ whose base-only conjunct thins the
		// scan list.
		{"int literal, float column", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.f"), expr.IntLit(40)), expr.NewCmp(value.GE, expr.IntLit(90), expr.C("R.f"))), Aggs: count},
		}, exists(0), true},
		{"generic between kernels", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("odd")),
				expr.NewCmp(value.GT, expr.NewArith(expr.OpAdd, expr.C("R.v"), expr.C("R.f")), expr.IntLit(60)),
				expr.NewCmp(value.LT, expr.C("R.f"), expr.FloatLit(77.5))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Max, Arg: expr.C("R.f"), As: "mx"}}},
		}, nil, true},
		{"column-to-column residual", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.LT, expr.C("B.id"), expr.C("R.f")), expr.NewCmp(value.NE, expr.C("R.v"), expr.C("B.k"))), Aggs: count},
		}, exists(0), true},
		{"fallback with base-only conjunct", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.GE, expr.C("B.id"), expr.IntLit(32)), expr.NewCmp(value.LT, expr.C("R.f"), expr.IntLit(5))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, false},
		// Range-bound θ, each beside a detail-only conjunct for the pass: a
		// band on one base column between an INT and a FLOAT bound, both
		// NULL on some rows; bands mostly empty; Example 2.1's band over two
		// base columns, and its suffix mirror on FLOAT bounds with NaN; a
		// basePred-filtered list with a <> residual under ALL's completion —
		// Fig 4's "> ALL" counterexample shape.
		{"range: one-column band", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LE, expr.C("R.k"), expr.C("B.id")), expr.NewCmp(value.LT, expr.C("B.id"), expr.C("R.f")), expr.Eq(expr.C("R.tag"), expr.StrLit("even"))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, nil, false},
		{"range: empty and overlapping bands", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.GT, expr.C("B.k"), expr.C("R.v")), expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(90))), Aggs: count},
		}, exists(0), false},
		{"range: two-column band", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.GE, expr.C("R.v"), expr.C("B.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.C("B.id")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))), Aggs: count},
		}, exists(0), false},
		{"range: two-column band, suffix mirror", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("R.f"), expr.C("B.id")), expr.NewCmp(value.GE, expr.C("R.f"), expr.C("B.k")), expr.NewCmp(value.NE, expr.C("R.v"), expr.IntLit(50))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Max, Arg: expr.C("R.v"), As: "mx"}}},
		}, nil, false},
		{"range: filtered list, <> residual", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LE, expr.C("B.id"), expr.C("R.v")), expr.NewCmp(value.NE, expr.C("R.k"), expr.C("B.k")),
				expr.NewCmp(value.GE, expr.C("B.k"), expr.IntLit(10)), expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(3))), Aggs: count},
		}, &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}, false},
	}
	// Recorded at the parent of the range-bound class, where every
	// fallback θ scanned its whole list.
	golden := map[string]golden{
		"no detail predicate":                   {0x620d58c840785050, 341406},
		"one detail predicate":                  {0x622250b704d665b4, 167040},
		"shared key, two predicates":            {0x11e77957cc62d82a, 239808},
		"NULL keys":                             {0xf7be838383802736, 341406},
		"fallback beside hash-bound":            {0xd079f92e606fb4e5, 1489920},
		"int literal, float column":             {0xe035a746602f1a6e, 145776},
		"generic between kernels":               {0xd99ed6bca34874bc, 90456},
		"column-to-column residual":             {0xf8d6cfb80b0863d6, 341406},
		"fallback with base-only conjunct":      {0xb7b85982e1f0df71, 233472},
		"range: one-column band":                {0x20d57d289e8945f, 5506176},
		"range: empty and overlapping bands":    {0xe686dfae05cc85bd, 4873902},
		"range: two-column band":                {0x9b1c6b8a218f6d32, 1723926},
		"range: two-column band, suffix mirror": {0x53ae718f398f4ae7, 10900992},
		"range: filtered list, <> residual":     {0xb0845bb44284f6f7, 3048},
	}
	lines := map[string]*strings.Builder{}
	for _, sh := range shapes {
		lines[sh.name] = new(strings.Builder)
	}
	const m = govern.MorselRows
	var details []*relation.Relation
	for _, n := range []int{0, 1, m - 1, m, m + 1, 2*m + 1} {
		details = append(details, passDetail(n))
	}
	// A zone-pruned detail: the run of table rows that survived, as a
	// window into the table's row slice. Its morsels do not start where
	// the table's do, and there is no hash vector to take from the table.
	table := passDetail(4 * m)
	details = append(details, &relation.Relation{Schema: table.Schema, Rows: table.Rows[m+7 : 3*m+8]})
	for _, detail := range details {
		n := len(detail.Rows)
		for _, sh := range shapes {
			for _, spilled := range []bool{false, true} {
				var want string
				var ref Stats
				for _, workers := range []int{1, 2, 4, 8} {
					var stats Stats
					opts := Options{Completion: sh.comp, Workers: workers, Stats: &stats}
					release := func() {}
					if spilled {
						store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
						if err != nil {
							t.Fatal(err)
						}
						opts.Spill = store
						opts.Mem, release = tinyTracker(t)
					}
					out, err := Evaluate(base, detail, sh.conds, opts)
					release()
					name := fmt.Sprintf("n=%d/%s/spilled=%v/workers=%d", n, sh.name, spilled, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if spilled && stats.SpillPartitions == 0 {
						t.Fatalf("%s: nothing spilled", name)
					}
					if pass := workers > 1 && n >= 2*m; (stats.DetailPassWorkers > 1) != pass {
						t.Errorf("%s: DetailPassWorkers = %d, want the pass to run: %v", name, stats.DetailPassWorkers, pass)
					}
					if fed, skipped, all := stats.DetailRows, stats.ShortCircuitRows, stats.DetailScans*int64(n); fed+skipped != all {
						t.Errorf("%s: DetailRows(%d) + ShortCircuitRows(%d) != DetailScans(%d) × %d", name, fed, skipped, stats.DetailScans, n)
					}
					if sh.hashBound && stats.DetailScans != 1+stats.ExtraDetailScans {
						t.Errorf("%s: DetailScans = %d over %d partitions, want one each", name, stats.DetailScans, 1+stats.ExtraDetailScans)
					}
					if workers <= 4 { // above it the fold's degree follows GOMAXPROCS
						lines[sh.name].WriteString(goldenLine(name, out, &stats))
					}
					if workers == 1 {
						want, ref = out.String(), stats
						continue
					}
					if out.String() != want {
						t.Errorf("%s: output differs from Workers: 1", name)
					}
					// A sharded fold short-circuits per range under completion.
					sharded := !sh.hashBound && sh.comp != nil
					if stats.Matches != ref.Matches || stats.Completed != ref.Completed ||
						(!sharded && stats.ShortCircuitRows != ref.ShortCircuitRows) || (sh.hashBound && stats.Probes != ref.Probes) {
						t.Errorf("%s: counters diverge from Workers: 1:\nserial   %+v\nparallel %+v", name, ref, stats)
					}
				}
			}
		}
	}
	for _, sh := range shapes {
		checkGolden(t, sh.name, lines[sh.name], golden)
	}
}

// TestDetailPassError: a detail predicate that fails on one row of the
// last morsel fails the evaluation with that error at every degree.
func TestDetailPassError(t *testing.T) {
	base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	for i := 0; i < 8; i++ {
		base.Append(relation.Tuple{value.Int(int64(i))})
	}
	detail := passDetail(2*govern.MorselRows + 1)
	detail.Rows[len(detail.Rows)-1][2] = value.Str("not a number")
	conds := []algebra.GMDJCond{{
		Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")),
			expr.NewCmp(value.GE, expr.NewArith(expr.OpAdd, expr.C("R.v"), expr.IntLit(0)), expr.IntLit(0))),
		Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	var want string
	for _, workers := range []int{1, 2, 4, 8} {
		_, err := Evaluate(base, detail, conds, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: evaluation succeeded over a row the predicate cannot evaluate", workers)
		}
		if workers == 1 {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: err = %v, want %s", workers, err, want)
		}
	}
}

// TestPassVectorReuse: a hash vector recycled from an earlier query —
// other key columns, every row hashed — carries nothing over: the next
// query's answers are the Workers: 1 answers.
func TestPassVectorReuse(t *testing.T) {
	base := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt}))
	for i := 0; i < 20; i++ {
		base.Append(relation.Tuple{value.Int(int64(i))})
	}
	detail := passDetail(2*govern.MorselRows + 1)
	count := []agg.Spec{{Func: agg.CountStar, As: "cnt"}}
	for _, theta := range []expr.Expr{
		expr.Eq(expr.C("B.k"), expr.C("R.v")),
		expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))),
	} {
		conds := []algebra.GMDJCond{{Theta: theta, Aggs: count}}
		want, err := Evaluate(base, detail, conds, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Evaluate(base, detail, conds, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(got); d != "" {
			t.Errorf("θ = %s: %s", theta, d)
		}
	}
}
