package benchlab

import (
	"fmt"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// keyPairExists is a fig4-corpus companion query whose result is
// non-empty at scale: A rows whose value reappears under a different
// key. The benchmark's own ALL ≠ query returns no rows past ~1k rows
// by construction (valDomain guarantees counterexamples), which would
// make an ordering assertion vacuous; this EXISTS variant pushes
// ~every A row through the parallel restrict→project pipeline instead.
func keyPairExists() algebra.Node {
	sub := &algebra.Subquery{
		Source: algebra.NewScan("B", "B"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.NewCmp(value.NE, expr.C("B.b_key"), expr.C("A.a_key")),
			expr.Eq(expr.C("B.b_val"), expr.C("A.a_val")),
		)},
	}
	return algebra.NewRestrict(algebra.NewScan("A", "A"), algebra.ExistsPred(sub))
}

// TestParallelDeterminism pins the morsel scheduler's ordering
// guarantee on the paper corpus: serial execution and parallel
// execution at 2 and 8 workers must produce byte-identical results —
// same rows, same order — for every strategy. Sizes are chosen past
// the morsel threshold (2×MorselRows input rows) so the parallel
// pipelines, the hash-join build, and the GMDJ detail chunking
// actually engage; known-quadratic contenders (fig4's set-difference
// unnesting and basic GMDJ) are filtered the same way the benchmark
// caps them.
func TestParallelDeterminism(t *testing.T) {
	r := DefaultRunner()
	cases := []struct {
		exp   *Experiment
		size  Size
		query algebra.Node // overrides exp.Query when non-nil
		// wantEmpty: the corpus query is known to return no rows at
		// this size; the assertion then only pins agreement, and a
		// companion case covers the non-empty path.
		wantEmpty bool
		skip      map[string]bool
	}{
		// Quantified ALL with ≠ correlation, exactly the fig4 query:
		// empty result by construction, exercising full-input
		// short-circuit under parallel detail scans.
		{exp: r.Fig4(), size: Size{Label: "12k/12k", Outer: 12_000, Inner: 12_000},
			wantEmpty: true,
			skip:      map[string]bool{"native": true, "unnest": true, "gmdj": true}},
		// Same KeyPair catalog, EXISTS flavor: ~all 12k rows survive,
		// so morsel buffer concatenation order is actually observable.
		{exp: r.Fig4(), size: Size{Label: "12k/12k-exists", Outer: 12_000, Inner: 12_000},
			query: keyPairExists(),
			skip:  map[string]bool{"native": true, "unnest": true}},
		// Tree-nested EXISTS over TPC-R: equi-key hash join (unnest)
		// builds morsel-parallel over 20k orders; GMDJ detail scans
		// chunk the same rows. Unindexed tuple iteration is excluded on
		// cost, exactly as the benchmark caps it.
		{exp: r.Fig5(), size: Size{Label: "1k/20k", Outer: 1_000, Inner: 20_000},
			skip: map[string]bool{"native-noidx": true}},
	}
	for _, c := range cases {
		cat := c.exp.Build(c.size)
		if c.exp.Prepare != nil {
			if err := c.exp.Prepare(cat); err != nil {
				t.Fatal(err)
			}
		}
		plan := c.query
		if plan == nil {
			plan = c.exp.Query(c.size)
		}
		for _, v := range c.exp.Variants {
			if c.skip[v.Name] {
				continue
			}
			t.Run(fmt.Sprintf("%s/%s/%s", c.exp.ID, c.size.Label, v.Name), func(t *testing.T) {
				// One engine per degree, each planning and running the
				// variant's query.
				run := func(workers int) (*relation.Relation, error) {
					eng := engine.New(cat, func(cfg *engine.Config) { cfg.UseIndexes, cfg.Parallelism = v.UseIndexes, workers })
					defer eng.Close()
					phys, err := eng.Plan(plan, v.Strategy)
					if err != nil {
						return nil, err
					}
					return eng.Run(phys, engine.Native) // already rewritten
				}
				want, err := run(1)
				if err != nil {
					t.Fatal(err)
				}
				if !c.wantEmpty && want.Len() == 0 {
					t.Fatalf("degenerate corpus: %s/%s returned no rows", c.exp.ID, v.Name)
				}
				for _, workers := range []int{2, 8} {
					got, err := run(workers)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if got.String() != want.String() {
						t.Fatalf("workers=%d: output differs from serial:\n%s", workers, want.Diff(got))
					}
				}
			})
		}
	}
}
