package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/olaplab/gmdj/internal/agg"
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
// the same backing arrays, not copies. A build side of its own spans
// three morsels and holds the keys hashing has to get right: duplicates,
// NULL, INT 1 beside FLOAT 1.0, 0.0 beside -0.0, and NaN.
func TestMorselBoundaries(t *testing.T) {
	right := morselRight(value.Int(0), value.Int(0), value.Int(2)) // a duplicate key: two matches per probe
	for _, n := range []int{0, 1, govern.MorselRows - 1, govern.MorselRows, govern.MorselRows + 1, 2*govern.MorselRows + 1} {
		left := morselInput(n)
		var restrict, project []relation.Tuple
		for _, l := range left.Rows {
			if l[1].AsInt() >= 2 {
				restrict = append(restrict, l)
			}
			project = append(project, relation.Tuple{l[1], l[0]})
		}
		in := algebra.NewRaw("L", left)
		checkMorselCases(t, fmt.Sprintf("n=%d", n), left, right, []morselCase{
			{"restrict", algebra.Filter(in, expr.NewCmp(value.GE, expr.C("L.r"), expr.IntLit(2))), restrict, true},
			{"project", algebra.ProjectCols(in, false, "L.r", "L.k"), project, false},
		})
	}

	keys := []value.Value{value.Int(1), value.Float(1), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.NaN()), value.Null, value.Int(0), value.Int(7)}
	var wide []value.Value
	for i := 0; i < 2*govern.MorselRows+3; i++ {
		wide = append(wide, keys[i%len(keys)])
	}
	left := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "L", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "L", Name: "r", Type: value.KindFloat},
	))
	for i, k := range append(keys, value.Int(2)) { // 2 matches nothing
		left.Append(relation.Tuple{value.Int(int64(i)), k})
	}
	checkMorselCases(t, "wide-build", left, morselRight(wide...), nil)
}

// morselRight builds R(r) with one row per key.
func morselRight(keys ...value.Value) *relation.Relation {
	right := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "r", Type: value.KindFloat},
	))
	for _, k := range keys {
		right.Append(relation.Tuple{k})
	}
	return right
}

type morselCase struct {
	name   string
	plan   algebra.Node
	want   []relation.Tuple
	shared bool // output tuples must be the input's own
}

// checkMorselCases runs the given cases and the four joins of left and
// right on L.r = R.r at degrees 1 and 4 against the row-at-a-time
// reference: a pair matches when neither key is NULL and they are Equal.
func checkMorselCases(t *testing.T, label string, left, right *relation.Relation, cases []morselCase) {
	t.Helper()
	var inner, outer, semi, anti []relation.Tuple
	for _, l := range left.Rows {
		matched := false
		for _, r := range right.Rows {
			if !l[1].IsNull() && !r[0].IsNull() && value.Equal(l[1], r[0]) {
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
	on := expr.Eq(expr.C("L.r"), expr.C("R.r"))
	cases = append(cases,
		morselCase{"inner", algebra.NewJoin(algebra.InnerJoin, in, r, on), inner, false},
		morselCase{"leftouter", algebra.NewJoin(algebra.LeftOuterJoin, in, r, on), outer, false},
		morselCase{"semi", algebra.NewJoin(algebra.SemiJoin, in, r, on), semi, true},
		morselCase{"anti", algebra.NewJoin(algebra.AntiJoin, in, r, on), anti, true},
	)
	for _, degree := range []int{1, 4} {
		e := New(storage.NewCatalog())
		e.Parallelism = degree
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/%s/p=%d", c.name, label, degree), func(t *testing.T) {
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
// the parent of the typed-kernel change. A σ/π over a GMDJ runs inside
// the GMDJ's emit, which polls cancellation every 256 base tuples and
// charges only the chain's output: cancelled at L.k = 1002 it has charged
// the 410 survivors below the poll at 1024, of 1 679, and the row budget
// trips on its 1 001st one-column row, not on a wide row.
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
		width      int   // columns of each row charged
	}{
		{"restrict", func(stop expr.Expr) algebra.Node {
			return algebra.Filter(in, expr.NewAnd(expr.NewCmp(value.GE, expr.C("L.r"), expr.IntLit(2)), stop))
		}, 1002, 613, 2},
		{"join ON", func(stop expr.Expr) algebra.Node {
			return algebra.NewJoin(algebra.InnerJoin, in, r, expr.NewAnd(expr.Eq(expr.C("L.r"), expr.C("R.r")), expr.NewCmp(value.GE, expr.C("L.k"), expr.IntLit(0)), stop))
		}, 1002, 672, 3},
		{"nested-loop join ON", func(stop expr.Expr) algebra.Node {
			return algebra.NewJoin(algebra.SemiJoin, in, r, expr.NewAnd(expr.NewCmp(value.LT, expr.C("L.r"), expr.C("R.r")), stop))
		}, 1001, 410, 2},
		{"σ/π over GMDJ", func(stop expr.Expr) algebra.Node {
			g := algebra.NewGMDJ(in, r, algebra.GMDJCond{
				Theta: expr.Eq(expr.C("L.r"), expr.C("R.r")),
				Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
			})
			return algebra.ProjectCols(algebra.Filter(g, expr.NewAnd(expr.NewCmp(value.GT, expr.C("cnt"), expr.IntLit(0)), stop)), false, "L.k")
		}, 1002, 410, 1},
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
		bytes := 1001 * make(relation.Tuple, c.width).ApproxBytes()
		if _, err := e.RunObserved(c.plan(expr.BoolLit(true)), gov, nil); !errors.Is(err, govern.ErrRowBudget) || gov.Rows() != 1001 || gov.Bytes() != bytes {
			t.Errorf("%s, row budget: err = %v after %d rows, %d bytes; want ErrRowBudget on row 1001, %d bytes", c.name, err, gov.Rows(), gov.Bytes(), bytes)
		}
	}
}
