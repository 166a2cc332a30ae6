package engine

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// fusedCorpus is Table 1's subquery forms over A(x, y) and B(k, v), and
// the benchmark's four TPC-R shapes (benchShapes) over customers and
// orders; both bases hold duplicate rows and NULL-bearing ones.
func fusedCorpus() []struct {
	cat         *storage.Catalog
	queries     []string
	partitioned bool // the test's memory limit partitions the base
} {
	ints := func(name string, cols [2]string, rows [][2]any) *storage.Table {
		rel := relation.New(relation.NewSchema(
			relation.Column{Qualifier: name, Name: cols[0], Type: value.KindInt},
			relation.Column{Qualifier: name, Name: cols[1], Type: value.KindInt},
		))
		for _, r := range rows {
			row := relation.Tuple{value.Null, value.Null}
			for i, v := range r {
				if v != nil {
					row[i] = value.Int(int64(v.(int)))
				}
			}
			rel.Append(row)
		}
		return storage.NewTable(name, rel)
	}
	ab := storage.NewCatalog()
	ab.Register(ints("A", [2]string{"x", "y"}, [][2]any{{1, 1}, {1, 1}, {2, 5}, {2, 5}, {3, nil}, {4, 2}, {nil, 3}, {2, 9}}))
	ab.Register(ints("B", [2]string{"k", "v"}, [][2]any{{1, 1}, {2, 3}, {2, 7}, {3, 9}, {4, nil}, {nil, 4}}))
	const a = "SELECT a.x, a.y FROM A a WHERE "
	table1 := []string{
		a + "EXISTS (SELECT * FROM B b WHERE b.k = a.x AND b.v > 2)",
		"SELECT a.x FROM A a WHERE NOT EXISTS (SELECT * FROM B b WHERE b.k = a.x)",
		a + "a.y IN (SELECT b.v FROM B b WHERE b.k = a.x)",
		"SELECT a.y FROM A a WHERE a.y NOT IN (SELECT b.v FROM B b WHERE b.k >= a.x)",
		"SELECT a.x FROM A a WHERE a.y > SOME (SELECT b.v FROM B b WHERE b.k = a.x)",
		a + "a.y < ALL (SELECT b.v FROM B b WHERE b.k <> a.x)",
		"SELECT a.x + a.y FROM A a WHERE 1 < (SELECT COUNT(*) FROM B b WHERE b.k = a.x)",
		"SELECT a.x FROM A a WHERE a.y <= (SELECT SUM(b.v) FROM B b WHERE b.k = a.x) AND a.x > 1",
		"SELECT a.y FROM A a WHERE a.y * 2 > (SELECT AVG(b.v) FROM B b WHERE b.k = a.x)",
		a + "a.y = (SELECT MAX(b.v) FROM B b WHERE b.k = a.x) OR a.y IS NULL",
	}

	tpcr := datagen.DefaultTPCR()
	tpcr.Customers, tpcr.Orders, tpcr.Lineitems, tpcr.Suppliers, tpcr.Parts = 1500, 6000, 0, 1, 1
	cat := datagen.TPCR(tpcr)
	customer, _ := cat.Table("customer")
	extra := append([]relation.Tuple(nil), customer.Rel.Rows[:200]...) // duplicates
	for i := range 3 {
		row := customer.Rel.Rows[i].Clone()
		row[i%2*3] = value.Null // a NULL key, a NULL balance
		extra = append(extra, row)
	}
	if err := customer.Append(extra); err != nil {
		panic(err)
	}
	return []struct {
		cat         *storage.Catalog
		queries     []string
		partitioned bool
	}{{ab, table1, false}, {cat, benchShapes()[0].queries[:8], true}}
}

// TestFusedEmitMatchesStaged: a σ/π chain run inside its GMDJ's emit
// returns what the same gmdj-opt plan returns with every GMDJ's output
// staged through algebra.NewRaw first — the chain then runs as a morsel
// pass over the materialized wide rows, as the benchmark's traced pass
// stages it — with identical GMDJ counters, at degrees 1, 2 and 4,
// resident and under a memory limit that partitions the base.
func TestFusedEmitMatchesStaged(t *testing.T) {
	ctx := context.Background()
	for _, group := range fusedCorpus() {
		planner := New(group.cat)
		for _, limit := range []int64{0, 48 << 10} {
			for _, degree := range []int{1, 2, 4} {
				// One executor per side, so each side's counters sum its own
				// evaluations of the same sequence of GMDJs.
				var ex [2]*exec.Executor
				for i := range ex {
					ex[i] = exec.New(group.cat)
					ex[i].Parallelism = degree
					if limit > 0 {
						store, err := spill.NewScratch(t.TempDir(), nil)
						if err != nil {
							t.Fatal(err)
						}
						ex[i].Spill = store
					}
				}
				var pool *mem.Pool
				if limit > 0 {
					pool = mem.NewPool(limit, 0)
				}
				run := func(ex *exec.Executor, p algebra.Node) (*relation.Relation, error) {
					gov := govern.New(ctx, govern.Budget{})
					if pool != nil {
						res, err := pool.Acquire(ctx, 0)
						if err != nil {
							return nil, err
						}
						defer res.Release()
						gov.AttachReservation(res)
					}
					return ex.RunObserved(p, gov, nil)
				}
				// stage evaluates every GMDJ, innermost first, and hands its
				// output on as a Raw input.
				var stage func(n algebra.Node) (algebra.Node, error)
				stage = func(n algebra.Node) (algebra.Node, error) {
					n, err := algebra.MapInputs(n, stage)
					if g, ok := n.(*algebra.GMDJ); ok && err == nil {
						var rel *relation.Relation
						rel, err = run(ex[1], g)
						n = algebra.NewRaw("staged", rel)
					}
					return n, err
				}
				for _, q := range group.queries {
					label := fmt.Sprintf("%s (limit %d, degree %d)", q, limit, degree)
					plan, err := sql.ParseAndResolve(q, planner)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					phys, err := planner.Plan(plan, GMDJOpt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got, err := run(ex[0], phys)
					if err != nil {
						t.Fatalf("%s: fused: %v", label, err)
					}
					staged, err := stage(phys)
					var want *relation.Relation
					if err == nil {
						want, err = run(ex[1], staged)
					}
					if err != nil {
						t.Fatalf("%s: staged: %v", label, err)
					}
					if d := want.Diff(got); d != "" || got.String() != want.String() {
						t.Errorf("%s: fused and staged differ: %s", label, d)
					}
					_, _, _, fs := ex[0].Counters()
					_, _, _, ss := ex[1].Counters()
					if !reflect.DeepEqual(fs, ss) {
						t.Errorf("%s: GMDJ counters fused %+v, staged %+v", label, fs, ss)
					}
				}
				if _, _, _, s := ex[0].Counters(); limit > 0 && group.partitioned && s.SpillPartitions == 0 {
					t.Errorf("under a %d-byte limit at degree %d: no base was partitioned", limit, degree)
				}
				pool.Close()
				for i := range ex {
					if ex[i].Spill != nil {
						ex[i].Spill.RemoveAll()
					}
				}
			}
		}
		planner.Close()
	}
}
