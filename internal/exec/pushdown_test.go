package exec

import (
	"slices"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

const block = storage.ZoneBlockRows

// keyedCatalog holds R(k, g, v) — blocks blocks of rows with k
// ascending, some v NULL — and the eight groups B(g) its rows fall in.
func keyedCatalog(blocks int) *storage.Catalog {
	cat := storage.NewCatalog()
	r := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "g", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	for i := 0; i < blocks*block; i++ {
		v := value.Int(int64(i * 13 % 100))
		if i%17 == 0 {
			v = value.Null
		}
		r.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(i * 7 % 8)), v})
	}
	cat.Register(storage.NewTable("R", r))
	b := relation.New(relation.NewSchema(relation.Column{Qualifier: "B", Name: "g", Type: value.KindInt}))
	for g := 0; g < 8; g++ {
		b.Append(relation.Tuple{value.Int(int64(g))})
	}
	cat.Register(storage.NewTable("B", b))
	return cat
}

// TestPushSelectionsPruneBlocks: what pruneBlocks hands on. One
// surviving run is a window into the table's own rows; scattered
// survivors are copied only when the copy is smaller than what was
// skipped, and otherwise the table is handed on whole, nothing counted
// as pruned.
func TestPushSelectionsPruneBlocks(t *testing.T) {
	cat := keyedCatalog(8)
	tab, _ := cat.Table("R")
	in := tab.Rel
	conj := func(op value.CmpOp, n int64) pruneConjunct { return pruneConjunct{col: 0, op: op, lit: value.Int(n)} }
	cases := []struct {
		name          string
		conjs         []pruneConjunct
		rows, pruned  int
		window, whole bool
	}{
		{"newest keys: one run", []pruneConjunct{conj(value.GT, 6*block+5)}, 2 * block, 6, true, false},
		{"a middle range: one run", []pruneConjunct{conj(value.GE, 2*block), conj(value.LT, 3*block)}, block, 7, true, false},
		{"nothing ruled out", []pruneConjunct{conj(value.GE, 0)}, 8 * block, 0, false, true},
		{"everything ruled out", []pruneConjunct{conj(value.LT, 0)}, 0, 8, false, false},
	}
	for _, c := range cases {
		out, pruned, total := pruneBlocks(tab, in, c.conjs)
		if out.Len() != c.rows || pruned != c.pruned || total != 8 {
			t.Errorf("%s: %d rows, %d of %d blocks pruned; want %d rows, %d of 8", c.name, out.Len(), pruned, total, c.rows, c.pruned)
			continue
		}
		if c.whole && out != in {
			t.Errorf("%s: want the input relation itself", c.name)
		}
		if c.window {
			first := int(out.Rows[0][0].AsInt())
			if &out.Rows[0] != &in.Rows[first] {
				t.Errorf("%s: survivors were copied, want a window into the table's rows", c.name)
			}
		}
	}

	// Scattered survivors. With g = 9 throughout block 3 only, g < 9
	// leaves two runs of seven blocks in all: a copy of seven to skip one
	// is not worth it. With g = 9 throughout every odd block, half is
	// skipped and half copied, in table order.
	// Each arrangement is a table of its own: rows are only appended, so
	// the zone maps of a table whose cells were rewritten would be stale.
	withG := func(odd bool) (*storage.Table, *relation.Relation) {
		tab, _ := keyedCatalog(8).Table("R")
		for i, row := range tab.Rel.Rows {
			if b := i / block; b == 3 || (odd && b%2 == 1) {
				row[1] = value.Int(9)
			}
		}
		return tab, tab.Rel
	}
	below9 := []pruneConjunct{{col: 1, op: value.LT, lit: value.Int(9)}}
	tab, in = withG(false)
	if out, pruned, total := pruneBlocks(tab, in, below9); out != in || pruned != 0 || total != 8 {
		t.Fatalf("one block of eight ruled out: %d rows, %d pruned; want the input whole, nothing counted", out.Len(), pruned)
	}
	tab, in = withG(true)
	out, pruned, _ := pruneBlocks(tab, in, below9)
	if pruned != 4 || out.Len() != 4*block {
		t.Fatalf("scattered: %d rows, %d blocks pruned; want %d and 4", out.Len(), pruned, 4*block)
	}
	for i, row := range out.Rows {
		if want := int64(i/block*2*block + i%block); row[0].AsInt() != want {
			t.Fatalf("scattered: row %d has k = %d, want %d", i, row[0].AsInt(), want)
		}
	}
}

// TestPushSelectionsFusedDetail: a GMDJ over σ[c](Scan R) evaluated
// fused returns what the same plan returns evaluated operator by
// operator (the selection materialized first), for predicates that
// prune to one run, prune nothing, and hold NULLs; the stats tree shows
// the selection as a node of its own carrying the pruning counters; and
// every scan is charged the rows it handed on.
func TestPushSelectionsFusedDetail(t *testing.T) {
	cat := keyedCatalog(6)
	e := New(cat)
	conds := []algebra.GMDJCond{
		{Theta: expr.Eq(expr.C("B.g"), expr.C("R.g")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}, {Func: agg.Sum, Arg: expr.C("R.v"), As: "s"}}},
		{Theta: expr.NewCmp(value.LT, expr.C("B.g"), expr.C("R.g")), Aggs: []agg.Spec{{Func: agg.Max, Arg: expr.C("R.k"), As: "mx"}}},
	}
	gtK := func(n int64) expr.Expr { return expr.NewCmp(value.GT, expr.C("R.k"), expr.IntLit(n)) }
	vBig := expr.NewCmp(value.GT, expr.C("R.v"), expr.IntLit(60))
	for _, c := range []struct {
		name   string
		where  expr.Expr
		handed int64
		pruned int64
	}{
		{"prunes to the last block", expr.NewAnd(gtK(5*block+3), vBig), block, 5},
		{"prunes nothing", vBig, 6 * block, 0},
		{"NULLs in the selection column", expr.NewIsNull(expr.C("R.v"), false), 6 * block, 0},
	} {
		sel := algebra.Filter(algebra.NewScan("R", ""), c.where)
		fused := algebra.NewGMDJ(algebra.NewScan("B", ""), sel, conds...)
		filtered, err := e.Run(sel)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(algebra.NewGMDJ(algebra.NewScan("B", ""), algebra.NewRaw("filtered", filtered), conds...))
		if err != nil {
			t.Fatal(err)
		}
		// The conditions the fold runs under list θ's own conjuncts first,
		// then the selection's: the conjunct list is what the evaluator
		// compiles (expr.Pred), however the conjunction nests.
		_, fusedConds, _, err := e.gmdjDetail(fused, newEnv(&query{}))
		if err != nil {
			t.Fatal(err)
		}
		for i, cond := range fusedConds {
			if got, want := expr.Conjuncts(cond.Theta), append(expr.Conjuncts(conds[i].Theta), expr.Conjuncts(c.where)...); !slices.Equal(got, want) {
				t.Errorf("%s: fused θ%d lists conjuncts %v, want %v", c.name, i, got, want)
			}
		}
		scannedBefore, _, _, _ := e.Counters()
		col := obs.NewCollector(nil)
		got, err := e.RunObserved(fused, nil, col)
		if err != nil {
			t.Fatal(err)
		}
		if d := want.Diff(got); d != "" {
			t.Errorf("%s: fused evaluation differs from operator-by-operator: %s", c.name, d)
		}
		scanned, _, _, _ := e.Counters()
		if got, want := scanned-scannedBefore, 8+c.handed; got != want {
			t.Errorf("%s: rows_scanned moved by %d, want %d (B's 8 rows + the rows of R's surviving blocks)", c.name, got, want)
		}
		root := col.Root()
		selOp := root.Find("Select")
		if selOp == nil || selOp.Get("fused") != 1 || len(selOp.Children) != 1 {
			t.Fatalf("%s: no fused selection node over its scan:\n%s", c.name, obs.FormatTree(root))
		}
		if selOp.Rows != c.handed || selOp.Children[0].Rows != c.handed || selOp.Get("segments_pruned") != c.pruned {
			t.Errorf("%s: selection hands on %d rows (scan %d), %d blocks pruned; want %d rows, %d pruned:\n%s",
				c.name, selOp.Rows, selOp.Children[0].Rows, selOp.Get("segments_pruned"), c.handed, c.pruned, obs.FormatTree(root))
		}
		// The fold saw every row handed on, once per scan.
		scans := max(root.Get("detail_scans"), 1)
		if fed := root.Get("detail_rows") + root.Get("short_circuit_rows"); fed != scans*c.handed {
			t.Errorf("%s: detail_rows + short_circuit_rows = %d, want %d scans × %d rows", c.name, fed, scans, c.handed)
		}
	}
}
