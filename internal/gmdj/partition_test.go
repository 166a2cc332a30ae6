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
	)
	detail := relation.New(detailSchema)
	for i := 0; i < 2000; i++ {
		detail.Append(relation.Tuple{value.Int(int64(rng.Intn(20))), value.Int(int64(rng.Intn(100)))})
	}
	aggs := []agg.Spec{
		{Func: agg.CountStar, As: "cnt"},
		{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
	}
	// Base keys reach 29 and detail keys 19, so under either θ some base
	// tuples match and some never do: completion both retires and keeps.
	thetas := []struct {
		name  string
		theta expr.Expr
	}{
		{"indexed", expr.Eq(expr.C("B.k"), expr.C("R.k"))},
		{"fallback", expr.NewCmp(value.LT, expr.C("B.k"), expr.C("R.k"))},
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
					want, err := Evaluate(pt.base, pt.detail, conds, Options{Completion: c.comp})
					if err != nil {
						t.Fatal(err)
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
}
