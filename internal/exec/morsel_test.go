package exec

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// morselInput builds L(k, r) with k = 0..n-1 and r = k mod 5.
func morselInput(n int) *relation.Relation {
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "L", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "L", Name: "r", Type: value.KindInt},
	))
	for i := 0; i < n; i++ {
		rel.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 5))})
	}
	return rel
}

// TestMorselBoundaries runs every morsel-parallel operator over inputs
// that end before, on and after a morsel edge, serially and at degree
// 4, against a row-at-a-time reference: same rows, same order, and —
// where the operator passes input rows through (Restrict, semi, anti) —
// the same backing arrays, not copies.
func TestMorselBoundaries(t *testing.T) {
	right := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "r", Type: value.KindInt},
	))
	for _, r := range []int64{0, 0, 2} { // a duplicate key: two matches per probe
		right.Append(relation.Tuple{value.Int(r)})
	}
	on := expr.Eq(expr.C("L.r"), expr.C("R.r"))

	for _, n := range []int{0, 1, govern.MorselRows - 1, govern.MorselRows, govern.MorselRows + 1, 2*govern.MorselRows + 1} {
		left := morselInput(n)
		var restrict, project, inner, outer, semi, anti []relation.Tuple
		for _, l := range left.Rows {
			if l[1].AsInt() >= 2 {
				restrict = append(restrict, l)
			}
			project = append(project, relation.Tuple{l[1], l[0]})
			matched := false
			for _, r := range right.Rows {
				if value.Equal(l[1], r[0]) {
					matched = true
					inner = append(inner, l.Concat(r))
					outer = append(outer, l.Concat(r))
				}
			}
			if matched {
				semi = append(semi, l)
			} else {
				anti = append(anti, l)
				outer = append(outer, l.Concat(relation.Tuple{value.Null}))
			}
		}
		in, r := algebra.NewRaw("L", left), algebra.NewRaw("R", right)
		cases := []struct {
			name   string
			plan   algebra.Node
			want   []relation.Tuple
			shared bool // output tuples must be the input's own
		}{
			{"restrict", algebra.Filter(in, expr.NewCmp(value.GE, expr.C("L.r"), expr.IntLit(2))), restrict, true},
			{"project", algebra.ProjectCols(in, false, "L.r", "L.k"), project, false},
			{"inner", algebra.NewJoin(algebra.InnerJoin, in, r, on), inner, false},
			{"leftouter", algebra.NewJoin(algebra.LeftOuterJoin, in, r, on), outer, false},
			{"semi", algebra.NewJoin(algebra.SemiJoin, in, r, on), semi, true},
			{"anti", algebra.NewJoin(algebra.AntiJoin, in, r, on), anti, true},
		}
		for _, degree := range []int{1, 4} {
			e := New(storage.NewCatalog())
			e.Parallelism = degree
			for _, c := range cases {
				t.Run(fmt.Sprintf("%s/n=%d/p=%d", c.name, n, degree), func(t *testing.T) {
					got := run(t, e, c.plan).Rows
					if len(got) != len(c.want) {
						t.Fatalf("%d rows, want %d", len(got), len(c.want))
					}
					for i, row := range got {
						if row.String() != c.want[i].String() {
							t.Fatalf("row %d = %s, want %s", i, row, c.want[i])
						}
						if c.shared && &row[0] != &c.want[i][0] {
							t.Fatalf("row %d is a copy of the input tuple, want the tuple itself", i)
						}
					}
				})
			}
		}
	}
}

// TestRestrictAllocsPerMorsel pins the filter loop's cost model: a
// Restrict that rejects every row allocates per query and per morsel
// (plan compilation, the scratch tuple, the morsel buffer table), never
// per row.
func TestRestrictAllocsPerMorsel(t *testing.T) {
	const morsels = 8
	cat := storage.NewCatalog()
	cat.Register(storage.NewTable("L", morselInput(morsels*govern.MorselRows)))
	e := New(cat)
	plan := algebra.Filter(algebra.NewScan("L", "L"), expr.NewCmp(value.LT, expr.C("L.k"), expr.IntLit(0)))
	if out := run(t, e, plan); out.Len() != 0 {
		t.Fatalf("reject-all filter kept %d rows", out.Len())
	}
	allocs := testing.AllocsPerRun(10, func() { run(t, e, plan) })
	if limit := float64(8 * morsels); allocs > limit {
		t.Errorf("reject-all Restrict over %d rows allocated %.0f times, want at most %.0f (O(morsels))",
			morsels*govern.MorselRows, allocs, limit)
	}
}

// cancelWhen is a predicate leaf no kernel takes: always true, and it
// cancels the query's context on the row whose col equals at.
type cancelWhen struct {
	col    expr.Expr
	at     int64
	cancel context.CancelFunc
}

func (c *cancelWhen) Bind(s *relation.Schema) (expr.Expr, error) {
	col, err := c.col.Bind(s)
	return &cancelWhen{col: col, at: c.at, cancel: c.cancel}, err
}

func (c *cancelWhen) Eval(row relation.Tuple) (value.Value, error) {
	v, err := c.col.Eval(row)
	if err == nil && v.AsInt() == c.at {
		c.cancel()
	}
	return value.Bool(true), err
}

func (c *cancelWhen) Children() []expr.Expr { return []expr.Expr{c.col} }
func (c *cancelWhen) String() string        { return fmt.Sprintf("cancelWhen(%s, %d)", c.col, c.at) }

// TestPredSitesGoverned: σ and the join's ON evaluate through expr.Pred
// and are governed exactly as before it. A context cancelled from inside
// the predicate, behind a kernel conjunct, and a row budget each stop the
// plan at the row they always did: the typed error, and the rows
// materialized by then as recorded from the tree-walking interpreter at
// the parent of the typed-kernel change.
func TestPredSitesGoverned(t *testing.T) {
	left := morselInput(govern.MorselRows + 100)
	right := relation.New(relation.NewSchema(relation.Column{Qualifier: "R", Name: "r", Type: value.KindInt}))
	for _, r := range []int64{0, 0, 2} {
		right.Append(relation.Tuple{value.Int(r)})
	}
	in, r := algebra.NewRaw("L", left), algebra.NewRaw("R", right)
	for _, c := range []struct {
		name       string
		plan       func(stop expr.Expr) algebra.Node
		at         int64 // the L.k whose row cancels: one that reaches the last conjunct
		cancelRows int64 // rows materialized when the cancelled query stopped
	}{
		{"restrict", func(stop expr.Expr) algebra.Node {
			return algebra.Filter(in, expr.NewAnd(expr.NewCmp(value.GE, expr.C("L.r"), expr.IntLit(2)), stop))
		}, 1002, 613},
		{"join ON", func(stop expr.Expr) algebra.Node {
			return algebra.NewJoin(algebra.InnerJoin, in, r, expr.NewAnd(expr.Eq(expr.C("L.r"), expr.C("R.r")), expr.NewCmp(value.GE, expr.C("L.k"), expr.IntLit(0)), stop))
		}, 1002, 672},
		{"nested-loop join ON", func(stop expr.Expr) algebra.Node {
			return algebra.NewJoin(algebra.SemiJoin, in, r, expr.NewAnd(expr.NewCmp(value.LT, expr.C("L.r"), expr.C("R.r")), stop))
		}, 1001, 410},
	} {
		e := New(storage.NewCatalog())
		e.Parallelism = 1
		ctx, cancel := context.WithCancel(context.Background())
		gov := govern.New(ctx, govern.Budget{})
		_, err := e.RunObserved(c.plan(&cancelWhen{col: expr.C("L.k"), at: c.at, cancel: cancel}), gov, nil)
		cancel()
		if !errors.Is(err, govern.ErrCanceled) || gov.Rows() != c.cancelRows {
			t.Errorf("%s, cancelled at L.k = %d: err = %v after %d rows; want ErrCanceled after %d", c.name, c.at, err, gov.Rows(), c.cancelRows)
		}
		gov = govern.New(context.Background(), govern.Budget{MaxRows: 1000})
		if _, err := e.RunObserved(c.plan(expr.BoolLit(true)), gov, nil); !errors.Is(err, govern.ErrRowBudget) || gov.Rows() != 1001 {
			t.Errorf("%s, row budget: err = %v after %d rows; want ErrRowBudget on row 1001", c.name, err, gov.Rows())
		}
	}
}
