package exec

import (
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
