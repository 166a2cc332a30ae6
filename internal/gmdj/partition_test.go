package gmdj

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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
// after the other, and emits once. A nil split cuts the base as the
// spill regime does into four (program.parts): by key hash, with the
// detail routed, when every condition binds one key.
func evalParts(t *testing.T, base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options, split func(*relation.Relation) []partition) *relation.Relation {
	t.Helper()
	bits := 0
	if split == nil {
		bits = 2
	}
	p, err := compile(base, detail, conds, opts, bits)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.detailPass(); err != nil {
		t.Fatal(err)
	}
	out := p.newResult(len(base.Rows))
	parts := p.parts
	if split != nil {
		parts = func() []partition { return split(base) }
	}
	for _, part := range parts() {
		if err := p.evalPartition(out, part); err != nil {
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
// fallback scan, over the detail's rows or its typed columns; and every
// partitioning keeps the counter invariant fed + skipped == scans ×
// |detail|.
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
	// routed fold.
	golden := map[string]golden{
		"indexed":                      {0x3ead204be0bdbbf2, 28749},
		"indexed, detail conjuncts":    {0x66eb88d64c3805c8, 4395},
		"indexed, column residual":     {0xf799a902ed824ce9, 28749},
		"fallback, base-only conjunct": {0xd50868985ca1d32c, 26041},
		"range B.k < R.k":              {0x9b142505ffa97628, 126304},
		"range R.k < B.k":              {0x27d273f5913da69b, 138555},
		"range B.k <= R.k":             {0xe801dced3408c31f, 135899},
		"range R.k <= B.k":             {0x4f1c0b57104387ef, 148150},
		"range B.k > R.k":              {0x27d273f5913da69b, 138555},
		"range R.k > B.k":              {0x9b142505ffa97628, 126304},
		"range B.k >= R.k":             {0x4f1c0b57104387ef, 148150},
		"range R.k >= B.k":             {0xe801dced3408c31f, 135899},
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
		{"key-hash lists, routed", base, detail, 1, nil},
		{"key-hash lists, routed x 4 worker ranges", base, detail, 4, nil},
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
		cols := detailColumns(pt.detail)
		columns := func(col int) *relation.ColVec { return cols[col] }
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
					// Over the detail's typed columns (the typed fold where θ
					// allows it), the same rows and counters.
					var colStats Stats
					colGot := evalParts(t, pt.base, pt.detail, conds, Options{Completion: c.comp, Workers: pt.workers, Stats: &colStats, Columns: columns}, pt.split)
					if goldenLine("", got, &stats) != goldenLine("", colGot, &colStats) {
						t.Errorf("columns on and off differ: %s\noff: %+v\non:  %+v", got.Diff(colGot), stats, colStats)
					}
				})
			}
		}
	}
	for _, th := range thetas {
		checkGolden(t, th.name, lines[th.name], golden)
	}
}

// passDetail builds R(k, tag, v, f, big, g) with n rows: keys 0..19 with
// every 13th NULL, tags alternating, v cycling below 100, f in halves
// below 100 with every 11th NULL and every 17th otherwise NaN, big the
// key moved to 2^53-10 .. 2^53+9 (NULL with it), where float64 rounds
// odd INTs together, and g cycling 1e16, 1, -1e16 over each key's rows,
// a FLOAT sum that only detail order adds up the same.
func passDetail(n int) *relation.Relation {
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "tag", Type: value.KindString},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "f", Type: value.KindFloat},
		relation.Column{Qualifier: "R", Name: "big", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "g", Type: value.KindFloat},
		relation.Column{Qualifier: "R", Name: "s", Type: value.KindString},
		relation.Column{Qualifier: "R", Name: "u", Type: value.KindString},
	))
	for i := 0; i < n; i++ {
		k, f, big := value.Int(int64(i*7%20)), value.Float(float64(i*37%200)/2), value.Int(1<<53+int64(i*7%20)-10)
		if i%13 == 0 {
			k, big = value.Null, value.Null
		}
		if i%11 == 0 {
			f = value.Null
		} else if i%17 == 0 {
			f = value.Float(math.NaN())
		}
		g := value.Float([]float64{1e16, 1, -1e16}[i/20%3])
		// R.s's dictionary takes "b", "a", "c", "" in that order, not string
		// order; R.u holds a string per row, past relation.MaxDict from there.
		s := value.Str([]string{"b", "a", "", "c", "", "a"}[i%6])
		if i%6 == 2 {
			s = value.Null
		}
		detail.Append(relation.Tuple{k, value.Str([]string{"even", "odd"}[i%2]), value.Int(int64(i * 31 % 100)), f, big, g, s, value.Str(fmt.Sprintf("u%05d", i))})
	}
	return detail
}

// detailColumns packs every column of a detail into a typed vector, as
// storage.Table.Column does for a stored table: STRING cells
// dictionary-coded.
func detailColumns(detail *relation.Relation) []*relation.ColVec {
	cols := make([]*relation.ColVec, detail.Schema.Len())
	for c := range cols {
		cols[c] = relation.Coded(detail.Schema.Columns[c].Type)
		cols[c].Append(detail.Rows, c)
	}
	return cols
}

// goldenLine renders one evaluation as the evaluator-independent facts
// the goldens pin: a hash of the output and the five data counters.
func goldenLine(name string, out *relation.Relation, s *Stats) string {
	h := fnv.New64a()
	h.Write([]byte(out.String()))
	return fmt.Sprintf("%s out=%016x detail_rows=%d probes=%d matches=%d completed=%d short_circuit_rows=%d\n",
		name, h.Sum64(), s.DetailRows, s.Probes, s.Matches, s.Completed, s.ShortCircuitRows)
}

// golden pins one shape's golden lines as the evaluator produced them
// before θ could be range-bound or the detail routed: h hashes the lines
// without their probes=, detail_rows= and short_circuit_rows= fields —
// what the fold computes, not how often it walks the detail — and
// probes is their sum, which a sorted run instead of the whole scan
// list, or a key partition completion decided early, may lower but
// never raise.
type golden struct {
	h      uint64
	probes int64
}

var (
	probesField = regexp.MustCompile(` probes=(\d+)`)
	walkFields  = regexp.MustCompile(` (probes|detail_rows|short_circuit_rows)=\d+`)
)

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
	h.Write([]byte(walkFields.ReplaceAllString(lines.String(), "")))
	if got.h = h.Sum64(); got.h != want[name].h || got.probes > want[name].probes {
		t.Errorf("%s: results or counters moved off the fallback scan's: got {%#x, %d}, want {%#x, ≤ %d}",
			name, got.h, got.probes, want[name].h, want[name].probes)
		t.Log(lines.String())
	}
}

// TestDetailPassEquivalence: at every detail size around the morsel
// edges, every degree, with the base resident or spilled, evaluation
// returns the Workers: 1 answer with the Workers: 1 matches and
// completions — the detail pass (which runs only at two morsels or more
// and Workers > 1, or to route a spilled base) changes who computes the
// per-row work, never what the fold sees. A routed program reads the
// detail once in every regime (fed + skipped = |detail| unless a hot key
// splits) and probes the same buckets at every degree, less those a
// key partition completion decided early skips; an unrouted hash-bound
// one scans once per resident partition; a fallback θ beside it shards
// the fold and keeps the counter invariant. The last detail is a window
// into a larger table's rows, which is what a fused, zone-pruned detail
// scan hands over (exec.fusedDetail).
func TestDetailPassEquivalence(t *testing.T) {
	newBase := func(k func(i int) value.Value) *relation.Relation {
		base := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "B", Name: "id", Type: value.KindInt},
			relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
		))
		for i := 0; i < 64; i++ {
			base.Append(relation.Tuple{value.Int(int64(i)), k(i)})
		}
		return base
	}
	base := newBase(func(i int) value.Value { return value.Int(int64(i * 11 % 30)) })
	// One key on every tuple: its key partition cannot be cut, so a
	// spilled one splits with both halves walking its rows.
	hot := newBase(func(int) value.Value { return value.Int(7) })
	nullKeys := newBase(func(i int) value.Value {
		if i%5 == 0 {
			return value.Null
		}
		return value.Int(int64(i * 11 % 30))
	})
	// Every key R.k reaches but one: a key partition without it is
	// decided, and stops, while the whole base never is.
	early := newBase(func(i int) value.Value { return value.Int(int64(i%20 + i/63*25)) })
	// INT and FLOAT keys, -0.0 among them, against R.f's FLOAT halves
	// (0.0, NULL and NaN among them): equal keys hash, and so route, alike.
	kinds := newBase(func(i int) value.Value {
		switch i % 4 {
		case 0:
			return value.Int(int64(i % 25))
		case 1:
			return value.Float(float64(i % 25))
		case 2:
			return value.Float(math.Copysign(0, -1))
		}
		return value.Null
	})
	// FLOAT keys, NaN, -0.0 and halves among them, against R.f's (0.0 and
	// NaN among them), and one STRING key, so the walk compares the keys;
	// INT keys about 2^53, NULL on every fifth, against R.big's, where
	// hashes collide.
	floats := newBase(func(i int) value.Value {
		switch i % 5 {
		case 4:
			if i == 59 {
				return value.Str("59")
			}
		case 0:
			return value.Float(math.NaN())
		case 1:
			return value.Float(math.Copysign(0, -1))
		}
		return value.Float(float64(i*3%40) / 2)
	})
	bigKeys := newBase(func(i int) value.Value {
		if i%5 == 0 {
			return value.Null
		}
		return value.Int(1<<53 + int64(i*11%30) - 15)
	})
	// STRING keys against R.s's (NULL and "" among both) and R.u's.
	strKeys := newBase(func(i int) value.Value {
		if i%7 == 6 {
			return value.Null
		}
		return value.Str([]string{"a", "b", "c", "", "zz", "A"}[i%7])
	})
	rowKeys := newBase(func(i int) value.Value { return value.Str(fmt.Sprintf("u%05d", i*131%5000)) })
	// Unique keys, which take a slot map over typed columns: dense and
	// sparse INTs, INTs at both ends of int64 (a span that overflows: the
	// walk), NULLs among them, keys most detail rows lack, STRINGs against
	// R.s (coded) and R.u (plain past relation.MaxDict), FLOATs against INTs.
	dense := newBase(func(i int) value.Value { return value.Int(int64(i * 7 % 64)) })
	sparse := newBase(func(i int) value.Value { return value.Int(int64(i * i)) })
	ends := newBase(func(i int) value.Value { return value.Int([]int64{math.MinInt64, math.MaxInt64, int64(i)}[min(i, 2)]) })
	uniqNulls := newBase(func(i int) value.Value {
		if i%5 == 0 {
			return value.Null
		}
		return value.Int(int64(i))
	})
	missing := newBase(func(i int) value.Value { return value.Int(int64(i + 10)) })
	uniqStrs := newBase(func(i int) value.Value {
		return value.Str(append([]string{"b", "a", "", "c"}, fmt.Sprint(i))[min(i, 4)])
	})
	floatKeys := newBase(func(i int) value.Value { return value.Float(float64(i)) })
	// Base columns a mixed conjunct reads, each kind with NULLs: FLOATs
	// with NaN and both zeros; STRINGs, whose vector is coded or, for the
	// shapes plain names, plain as past relation.MaxDict.
	floatNulls := newBase(func(i int) value.Value {
		return []value.Value{value.Null, value.Float(math.NaN()), value.Float(math.Copysign(0, -1)), value.Float(0), value.Float(float64(i*3%40) / 2)}[min(i%7, 4)]
	})
	bind := expr.Eq(expr.C("B.k"), expr.C("R.k"))
	count := []agg.Spec{{Func: agg.CountStar, As: "cnt"}}
	cnt := func(as string) []agg.Spec { return []agg.Spec{{Func: agg.CountStar, As: as}} }
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
	zeroAtoms := func(n int) *algebra.CompletionInfo { // ALL's: a match in any of n conditions decides
		c := &algebra.CompletionInfo{}
		kids := make([]*algebra.BoolTree, n)
		for i := range kids {
			c.Atoms = append(c.Atoms, algebra.CompletionAtom{Cond: i, Kind: algebra.AtomZero})
			kids[i] = algebra.Leaf(i)
		}
		c.Tree = algebra.AndTree(kids...)
		return c
	}
	// Fig 4's counterexample conditions: θ's <> beside a = or <= (the
	// first), a NULL on the base side, a NULL on the detail side.
	fig4 := func(first expr.Expr, detailNull string) []algebra.GMDJCond {
		ne := expr.NewCmp(value.NE, expr.C("R.k"), expr.C("B.id"))
		return []algebra.GMDJCond{
			{Theta: expr.NewAnd(ne, first), Aggs: cnt("c1")},
			{Theta: expr.NewAnd(ne, expr.NewIsNull(expr.C("B.k"), false)), Aggs: cnt("c2")},
			{Theta: expr.NewAnd(ne, expr.NewIsNull(expr.C("R."+detailNull), false)), Aggs: cnt("c3")},
		}
	}
	// A base column against detail columns: residuals behind a key on
	// B.id, and a fallback <> beside a detail-only conjunct.
	against := func(x, y string) []algebra.GMDJCond {
		return []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.Eq(expr.C("B.id"), expr.C("R.v")), expr.NewCmp(value.NE, expr.C("B.k"), expr.C("R."+x)), expr.NewCmp(value.LE, expr.C("R."+y), expr.C("B.k"))), Aggs: count},
			{Theta: expr.NewAnd(expr.NewCmp(value.NE, expr.C("B.k"), expr.C("R."+y)), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))), Aggs: cnt("ne")},
		}
	}
	plain := map[string]bool{"base STRING column, plain": true}
	// hashBound: every condition indexed; routed: on one key as well.
	type shape struct {
		name              string
		conds             []algebra.GMDJCond
		comp              *algebra.CompletionInfo
		hashBound, routed bool
		base              *relation.Relation // nil: base
	}
	shapes := []shape{
		{"no detail predicate", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.v"), As: "a"}}},
		}, nil, true, true, nil},
		{"one detail predicate", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
		}, exists(0), true, true, nil},
		// tree_exists: two conditions on one key, different detail predicates.
		{"shared key, two predicates", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("odd")), expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(30))), Aggs: count},
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("even")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(70))), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt2"}}},
		}, exists(0, 1), true, true, nil},
		{"NULL keys", []algebra.GMDJCond{
			{Theta: bind, Aggs: count},
			{Theta: expr.NewAnd(bind, expr.NewIsNull(expr.C("R.k"), false)), Aggs: []agg.Spec{{Func: agg.CountStar, As: "nulls"}}},
		}, nil, true, true, nil},
		{"NULL keys on both sides", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, true, true, nullKeys},
		{"hot key", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(20))), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, true, true, hot},
		{"INT key against FLOAT key", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.f")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Max, Arg: expr.C("R.v"), As: "mx"}}},
		}, nil, true, true, kinds},
		// The typed fold's cases (DESIGN §14), each against the row path.
		{"FLOAT key against FLOAT key", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.f")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}, {Func: agg.Avg, Arg: expr.C("R.f"), As: "a"}}},
		}, nil, true, true, floats},
		{"INT keys beyond 2^53", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.big")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Count, Arg: expr.C("R.f"), As: "n"}, {Func: agg.Min, Arg: expr.C("R.tag"), As: "mn"}}},
		}, nil, true, true, bigKeys},
		{"FLOAT sums in detail order", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.g"), As: "s"}, {Func: agg.Avg, Arg: expr.C("R.g"), As: "a"}, {Func: agg.Var, Arg: expr.C("R.g"), As: "var"}}},
		}, nil, true, true, nil},
		// A typed condition beside one completion watches, whose frozen
		// tuples it must stop feeding at the row that froze them.
		{"typed beside completion", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.g"), As: "s"}, {Func: agg.CountDistinct, Arg: expr.C("R.v"), As: "d"}}},
		}, exists(0), true, true, nil},
		{"two keys", []algebra.GMDJCond{
			{Theta: bind, Aggs: count},
			{Theta: expr.Eq(expr.C("B.id"), expr.C("R.v")), Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, true, false, nil},
		{"completion decides a partition early", []algebra.GMDJCond{
			{Theta: bind, Aggs: count},
		}, &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}, true, true, early},
		{"fallback beside hash-bound", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(10))),
				Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, nil, false, false, nil},
		// What θ's evaluator sees at each of its sites: an INT literal beside
		// a FLOAT column, a STRING conjunct, a conjunct no kernel takes
		// between two that one does, a column-to-column residual behind the
		// hash probe, and a fallback θ whose base-only conjunct thins the
		// scan list.
		{"int literal, float column", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.f"), expr.IntLit(40)), expr.NewCmp(value.GE, expr.IntLit(90), expr.C("R.f"))), Aggs: count},
		}, exists(0), true, true, nil},
		{"generic between kernels", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.tag"), expr.StrLit("odd")),
				expr.NewCmp(value.GT, expr.NewArith(expr.OpAdd, expr.C("R.v"), expr.C("R.f")), expr.IntLit(60)),
				expr.NewCmp(value.LT, expr.C("R.f"), expr.FloatLit(77.5))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Max, Arg: expr.C("R.f"), As: "mx"}}},
		}, nil, true, true, nil},
		{"column-to-column residual", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.LT, expr.C("B.id"), expr.C("R.f")), expr.NewCmp(value.NE, expr.C("R.v"), expr.C("B.k"))), Aggs: count},
		}, exists(0), true, true, nil},
		{"fallback with base-only conjunct", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.GE, expr.C("B.id"), expr.IntLit(32)), expr.NewCmp(value.LT, expr.C("R.f"), expr.IntLit(5))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, false, false, nil},
		// Range-bound θ, each beside a detail-only conjunct for the pass: a
		// band on one base column between an INT and a FLOAT bound, both
		// NULL on some rows; bands mostly empty; Example 2.1's band over two
		// base columns, and its suffix mirror on FLOAT bounds with NaN; a
		// basePred-filtered list with a <> residual under ALL's completion —
		// Fig 4's "> ALL" counterexample shape.
		{"range: one-column band", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LE, expr.C("R.k"), expr.C("B.id")), expr.NewCmp(value.LT, expr.C("B.id"), expr.C("R.f")), expr.Eq(expr.C("R.tag"), expr.StrLit("even"))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, nil, false, false, nil},
		{"range: empty and overlapping bands", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.GT, expr.C("B.k"), expr.C("R.v")), expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(90))), Aggs: count},
		}, exists(0), false, false, nil},
		{"range: two-column band", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.GE, expr.C("R.v"), expr.C("B.k")), expr.NewCmp(value.LT, expr.C("R.v"), expr.C("B.id")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))), Aggs: count},
		}, exists(0), false, false, nil},
		{"range: two-column band, suffix mirror", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LT, expr.C("R.f"), expr.C("B.id")), expr.NewCmp(value.GE, expr.C("R.f"), expr.C("B.k")), expr.NewCmp(value.NE, expr.C("R.v"), expr.IntLit(50))),
				Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Max, Arg: expr.C("R.v"), As: "mx"}}},
		}, nil, false, false, nil},
		{"range: filtered list, <> residual", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.LE, expr.C("B.id"), expr.C("R.v")), expr.NewCmp(value.NE, expr.C("R.k"), expr.C("B.k")),
				expr.NewCmp(value.GE, expr.C("B.k"), expr.IntLit(10)), expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(3))), Aggs: count},
		}, &algebra.CompletionInfo{Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}}, Tree: algebra.Leaf(0)}, false, false, nil},
		// Fig 4's two statements, and a band, as gmdj-opt plans them: the
		// mixed conjuncts read the base's vectors when it has them, and a
		// decided tuple leaves its bucket.
		{"ne_all: key with a <> residual", fig4(expr.Eq(expr.C("B.k"), expr.C("R.k")), "k"), zeroAtoms(3), false, false, nullKeys},
		{"gt_all: <= with a <> residual", fig4(expr.NewCmp(value.LE, expr.C("B.k"), expr.C("R.f")), "f"), zeroAtoms(3), false, false, nullKeys},
		{"band with a <> residual", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.NewCmp(value.GE, expr.C("B.k"), expr.C("R.k")), expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.v")), expr.NewCmp(value.NE, expr.C("R.f"), expr.C("B.id")), expr.Eq(expr.C("R.tag"), expr.StrLit("even"))), Aggs: count},
		}, exists(0), false, false, nil},
		{"base INT column", against("f", "k"), exists(0), false, false, nullKeys},
		{"base FLOAT column", against("f", "g"), zeroAtoms(2), false, false, floatNulls},
		{"base STRING column, coded", against("s", "u"), exists(1), false, false, strKeys},
		{"base STRING column, plain", against("u", "s"), nil, false, false, strKeys},
		{"base column of mixed kinds", against("f", "k"), exists(0), false, false, kinds},
		// Dictionary-coded STRING columns (DESIGN §15): every operator
		// against R.s, whose code order is not its string order, a literal
		// the dictionary lacks, a STRING key, and R.u past the bound.
		{"coded string compares", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.s"), expr.StrLit("a"))), Aggs: count},
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.NE, expr.C("R.s"), expr.StrLit("b"))), Aggs: cnt("ne")},
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.LT, expr.C("R.s"), expr.StrLit("b"))), Aggs: cnt("lt")},
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GE, expr.C("R.s"), expr.StrLit(""))), Aggs: cnt("ge")},
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.StrLit("b"), expr.C("R.s"))), Aggs: cnt("gt")},
		}, nil, true, true, nil},
		{"literal absent from the dictionary", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.s"), expr.StrLit("ab")), expr.NewCmp(value.LT, expr.C("R.v"), expr.IntLit(60))), Aggs: count},
			{Theta: expr.NewAnd(bind, expr.Eq(expr.C("R.s"), expr.StrLit("ab"))), Aggs: cnt("eq")},
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.LE, expr.C("R.s"), expr.StrLit("bb")), expr.Eq(expr.C("R.tag"), expr.StrLit("odd"))), Aggs: cnt("le")},
		}, exists(0), true, true, nil},
		{"STRING key", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.s")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}, {Func: agg.Max, Arg: expr.C("R.u"), As: "mx"}}},
			{Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.s")), expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: cnt("big")},
		}, nil, true, true, strKeys},
		{"past the dictionary bound", []algebra.GMDJCond{
			{Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.u")), expr.NewCmp(value.GE, expr.C("R.u"), expr.StrLit("u00100"))), Aggs: count},
			{Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.u")), expr.NewCmp(value.NE, expr.C("R.u"), expr.StrLit("u04717"))), Aggs: []agg.Spec{{Func: agg.Min, Arg: expr.C("R.s"), As: "mn"}}},
		}, exists(0), true, true, rowKeys},
		{"unique INT keys, dense", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.v"), As: "a"}}},
		}, nil, true, true, dense},
		{"unique INT keys, sparse", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.f"), As: "s"}}},
		}, nil, true, true, sparse},
		{"unique INT keys at the int64 ends", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.g"), As: "a"}}},
		}, nil, true, true, ends},
		{"unique INT keys, NULL among them", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.Avg, Arg: expr.C("R.g"), As: "a"}, {Func: agg.Min, Arg: expr.C("R.s"), As: "mn"}}},
		}, nil, true, true, uniqNulls},
		{"unique INT keys most rows lack", []algebra.GMDJCond{
			{Theta: expr.NewAnd(bind, expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(50))), Aggs: count},
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, exists(0), true, true, missing},
		{"unique STRING keys, coded", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.s")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		}, nil, true, true, uniqStrs},
		{"unique STRING keys, plain past the bound", []algebra.GMDJCond{
			{Theta: expr.Eq(expr.C("B.k"), expr.C("R.u")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.f"), As: "a"}}},
		}, nil, true, true, rowKeys},
		{"unique FLOAT keys against INT keys", []algebra.GMDJCond{
			{Theta: bind, Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Avg, Arg: expr.C("R.v"), As: "a"}}},
		}, nil, true, true, floatKeys},
	}
	// Recorded at the parent of the routed fold; the last four at the
	// parent of dictionary coding.
	golden := map[string]golden{
		"no detail predicate":                   {0xb67f7c3a7eb98a98, 341406},
		"one detail predicate":                  {0x5bf73258fcb34296, 167040},
		"shared key, two predicates":            {0x7eaf4b9ceddeaf1a, 239808},
		"NULL keys":                             {0xa8a6889d343eb854, 341406},
		"NULL keys on both sides":               {0xe7743ba44a610b20, 269958},
		"hot key":                               {0x837fda27847d81a6, 407424},
		"INT key against FLOAT key":             {0x30f1a2664342a1e8, 35364},
		"FLOAT key against FLOAT key":           {0x6e1e1de60108b88a, 156354},
		"INT keys beyond 2^53":                  {0x8cee358978c5b78, 460404},
		"FLOAT sums in detail order":            {0x4f56633f14266b3c, 341406},
		"typed beside completion":               {0x1a0e388c189137d6, 450260},
		"two keys":                              {0x537dd3384ae0440c, 451524},
		"completion decides a partition early":  {0x1581b2159bf3d512, 377880},
		"fallback beside hash-bound":            {0x359d5deac902c618, 756942},
		"int literal, float column":             {0xe019838be675f072, 145776},
		"generic between kernels":               {0xc39583e9d40cc3e8, 90456},
		"column-to-column residual":             {0xe2075c6fbc426252, 341406},
		"fallback with base-only conjunct":      {0x91b6a3374c0799c2, 69342},
		"range: one-column band":                {0x19afc110c92af18e, 2588400},
		"range: empty and overlapping bands":    {0xc03053d54d721afa, 1080},
		"range: two-column band":                {0x6bd55effdbde4ce0, 99606},
		"range: two-column band, suffix mirror": {0xaa485b80d6f3d394, 2646306},
		"range: filtered list, <> residual":     {0xa6cfcd35e6625f10, 1284},
		"coded string compares":                 {0xd47272106accfa3a, 976608},
		"literal absent from the dictionary":    {0xbe5a21dc72bd871e, 164774},
		"STRING key":                            {0x81845aec59a95df0, 2011188},
		"past the dictionary bound":             {0x2991e0255f7eafb6, 2886},
		// Recorded at the parent of the slot map, over the detail's rows.
		"unique INT keys, dense":                   {0xb2993c28307de428, 158796},
		"unique INT keys, sparse":                  {0x25658c5eaf9fa17a, 39744},
		"unique INT keys at the int64 ends":        {0x420b20ecceb55dc8, 142914},
		"unique INT keys, NULL among them":         {0x3e4211c4ac3fac98, 127038},
		"unique INT keys most rows lack":           {0x408cf11b060b5d48, 115920},
		"unique STRING keys, coded":                {0x18a483a214a6509a, 143370},
		"unique STRING keys, plain past the bound": {0x67bbcfff6fc6130, 1458},
		"unique FLOAT keys against INT keys":       {0xc4ba901dcc92b3d0, 158796},
		// Recorded at the parent of the base vectors, over the base's rows.
		"ne_all: key with a <> residual": {0xb38dbae64a712fe6, 552230},
		"gt_all: <= with a <> residual":  {0xe8894a44488ab43a, 4260},
		"band with a <> residual":        {0x566a96dd5e2f81e4, 1944},
		"base INT column":                {0x57f5e4067483b96a, 2811786},
		"base FLOAT column":              {0xf6740bebbe7e7b88, 967648},
		"base STRING column, coded":      {0xfc366eee03f06828, 875023},
		"base STRING column, plain":      {0x3a795a267d8fb0ba, 5615142},
		"base column of mixed kinds":     {0x64b1d835a148e870, 4002774},
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
	// Each shape's base vectors, and how many of them its mixed conjuncts
	// read: none where they are boxed.
	shapeCols, read := map[string][]*relation.ColVec{}, map[string]int{}
	for _, sh := range shapes {
		b := base
		if sh.base != nil {
			b = sh.base
		}
		bcols := detailColumns(b)
		if plain[sh.name] {
			for c, v := range bcols {
				bcols[c] = &relation.ColVec{Kind: v.Kind}
				bcols[c].Append(b.Rows, c)
			}
		}
		p, err := compile(b, details[0], sh.conds, Options{BaseColumns: func(c int) *relation.ColVec { return bcols[c] }}, 0)
		if err != nil {
			t.Fatal(err)
		}
		shapeCols[sh.name], read[sh.name] = bcols, len(slices.DeleteFunc(p.baseCols, func(v *relation.ColVec) bool { return v == nil }))
	}
	for name, want := range map[string]int{"ne_all: key with a <> residual": 1, "gt_all: <= with a <> residual": 2, "band with a <> residual": 2,
		"base INT column": 1, "base FLOAT column": 1, "base STRING column, coded": 1, "base STRING column, plain": 1, "base column of mixed kinds": 0} {
		if read[name] != want {
			t.Errorf("%s: the mixed conjuncts read %d base vectors, want %d", name, read[name], want)
		}
	}
	for _, detail := range details {
		n, cols := len(detail.Rows), detailColumns(detail)
		for _, sh := range shapes {
			baseCols := shapeCols[sh.name]
			for _, spilled := range []bool{false, true} {
				var want string
				var ref Stats
				for _, workers := range []int{1, 2, 4, 8} {
					// run evaluates the shape on the detail's rows, or with its
					// typed columns when cols is set, and the base's, bcols.
					run := func(cols, bcols []*relation.ColVec) (*relation.Relation, Stats, error) {
						var stats Stats
						opts := Options{Completion: sh.comp, Workers: workers, Stats: &stats}
						if cols != nil {
							opts.Columns = func(c int) *relation.ColVec { return cols[c] }
						}
						if bcols != nil {
							opts.BaseColumns = func(c int) *relation.ColVec { return bcols[c] }
						}
						release := func() {}
						if spilled {
							store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
							if err != nil {
								t.Fatal(err)
							}
							opts.Spill = store
							opts.Mem, release = tinyTracker(t)
						}
						b := base
						if sh.base != nil {
							b = sh.base
						}
						defer release()
						out, err := Evaluate(b, detail, sh.conds, opts)
						return out, stats, err
					}
					out, stats, err := run(nil, nil)
					name := fmt.Sprintf("n=%d/%s/spilled=%v/workers=%d", n, sh.name, spilled, workers)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					// Read from typed columns, the same answer and counters.
					if workers <= 4 {
						colOut, colStats, err := run(cols, nil)
						if err != nil {
							t.Fatalf("%s, columns: %v", name, err)
						}
						if d := out.Diff(colOut); d != "" || goldenLine(name, out, &stats) != goldenLine(name, colOut, &colStats) {
							t.Errorf("%s: columns on and off differ: %s\noff: %+v\non:  %+v", name, d, stats, colStats)
						}
						// And the base's: the same answer and every counter.
						bOut, bStats, err := run(cols, baseCols)
						if err != nil {
							t.Fatalf("%s, base columns: %v", name, err)
						}
						if d := colOut.Diff(bOut); d != "" || !reflect.DeepEqual(colStats, bStats) {
							t.Errorf("%s: base columns on and off differ: %s\noff: %+v\non:  %+v", name, d, colStats, bStats)
						}
						if sh.hashBound && colStats.PackedHashConds+colStats.SlotConds == 0 {
							t.Errorf("%s: no key hash from the typed columns", name)
						}
					}
					if spilled && stats.SpillPartitions == 0 && sh.base != hot { // one key partition: resident, and split
						t.Fatalf("%s: nothing spilled", name)
					}
					if pass := workers > 1 && n >= 2*m; (stats.DetailPassWorkers > 1) != pass {
						t.Errorf("%s: DetailPassWorkers = %d, want the pass to run: %v", name, stats.DetailPassWorkers, pass)
					}
					// A spilled hot key splits, and both halves walk its rows.
					fed, skipped, all := stats.DetailRows, stats.ShortCircuitRows, stats.DetailScans*int64(n)
					if rewalk := sh.base == hot && spilled && n > 1; rewalk != (fed+skipped > all) || !rewalk && fed+skipped != all {
						t.Errorf("%s: DetailRows(%d) + ShortCircuitRows(%d) vs DetailScans(%d) × %d: want > for a split hot key, else ==", name, fed, skipped, stats.DetailScans, n)
					}
					if sh.routed && (stats.DetailScans != 1 || stats.ExtraDetailScans != 0) {
						t.Errorf("%s: DetailScans = %d, ExtraDetailScans = %d; a routed program reads the detail once", name, stats.DetailScans, stats.ExtraDetailScans)
					}
					if sh.hashBound && !sh.routed && stats.DetailScans != 1+stats.ExtraDetailScans {
						t.Errorf("%s: DetailScans = %d over %d partitions, want one each", name, stats.DetailScans, 1+stats.ExtraDetailScans)
					}
					keyCut := sh.routed && !spilled && workers > 1 && n >= 2*m // resident, only a pass at workers > 1 cuts by key
					if sh.base == early && (spilled || keyCut) && n > m && skipped == 0 {
						t.Errorf("%s: no key partition short-circuited", name)
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
					// Cut into base ranges or key partitions, a fold skips rows
					// per range or partition: other skip counts and, under
					// completion, fewer probes, never more.
					sameSkips := !keyCut && (sh.hashBound || sh.comp == nil)
					sameProbes := sh.comp == nil || !keyCut
					if stats.Matches != ref.Matches || stats.Completed != ref.Completed || (sameSkips && stats.ShortCircuitRows != ref.ShortCircuitRows) ||
						(sh.hashBound && (stats.Probes > ref.Probes || sameProbes && stats.Probes != ref.Probes)) {
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
