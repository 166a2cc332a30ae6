package engine

import (
	"errors"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/value"
)

func testEngine(t *testing.T, opts ...Option) *Engine {
	e := New(datagen.Netflow(datagen.NetflowOpts{Flows: 300, Hours: 4, Users: 6, Seed: 3}), opts...)
	t.Cleanup(func() { e.Close() })
	return e
}

// withDegree configures the execution degree.
func withDegree(n int) Option { return func(c *Config) { c.Parallelism = n } }

func existsPlan() algebra.Node {
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.NewCmp(value.GE, expr.C("F.StartTime"), expr.C("H.StartInterval")),
			expr.NewCmp(value.LT, expr.C("F.StartTime"), expr.C("H.EndInterval")),
			expr.Eq(expr.C("F.Protocol"), expr.StrLit("FTP")),
		)},
	}
	return algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{Native: "native", Unnest: "unnest", GMDJ: "gmdj", GMDJOpt: "gmdj-opt"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	if len(Strategies()) != 4 {
		t.Error("Strategies() should list all four")
	}
}

func TestAllStrategiesAgree(t *testing.T) {
	e := testEngine(t)
	plan := existsPlan()
	base, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Unnest, GMDJ, GMDJOpt} {
		got, err := e.Run(plan, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d := base.Diff(got); d != "" {
			t.Errorf("%v differs: %s", s, d)
		}
	}
}

func TestPlanShapesPerStrategy(t *testing.T) {
	e := testEngine(t)
	plan := existsPlan()

	native, err := e.Plan(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	if native != plan {
		t.Error("native planning must be the identity")
	}

	un, err := e.Plan(plan, Unnest)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(un.String(), "⋉") {
		t.Errorf("unnest plan lacks a semi-join: %s", un)
	}

	g, err := e.Plan(plan, GMDJ)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "MD(") {
		t.Errorf("gmdj plan lacks a GMDJ: %s", g)
	}

	opt, err := e.Plan(plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(opt.String(), "completion") {
		t.Errorf("gmdj-opt plan lacks completion: %s", opt)
	}

	if _, err := e.Plan(plan, Strategy(99)); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestExplainOutputs(t *testing.T) {
	e := testEngine(t)
	plan := existsPlan()
	for _, s := range Strategies() {
		out, err := e.Explain(plan, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !strings.Contains(out, "strategy: "+s.String()) {
			t.Errorf("%v explain lacks header:\n%s", s, out)
		}
		if !strings.Contains(out, "Scan") {
			t.Errorf("%v explain lacks scans:\n%s", s, out)
		}
	}
	out, _ := e.Explain(plan, GMDJOpt)
	if !strings.Contains(out, "GMDJ +completion") {
		t.Errorf("gmdj-opt explain should flag completion:\n%s", out)
	}
}

func TestGMDJStatsCollection(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Run(existsPlan(), GMDJ); err != nil {
		t.Fatal(err)
	}
	if e.Metrics()["gmdj.detail_rows"] == 0 {
		t.Error("stats should record detail rows scanned")
	}
}

func TestSetUseIndexesAffectsOnlyNative(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 500, Hours: 4, Users: 6, Seed: 4})
	flow, _ := cat.Table("Flow")
	if err := flow.BuildSortedIndex("StartTime"); err != nil {
		t.Fatal(err)
	}
	e := New(cat)
	defer e.Close()
	plan := existsPlan()
	a, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	unindexed := New(cat, func(c *Config) { c.UseIndexes = false })
	defer unindexed.Close()
	b, err := unindexed.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("index toggle changed native results: %s", d)
	}
	g1, err := e.Run(plan, GMDJ)
	if err != nil {
		t.Fatal(err)
	}
	if d := a.Diff(g1); d != "" {
		t.Errorf("gmdj differs: %s", d)
	}
}

// TestRecoveredPanicSameQuery: after an operator panic is recovered
// under every strategy, the query that panicked runs correctly on the
// same engine once the fault is gone, and the panics left no pool bytes
// reserved. The engine has no setter for its injector; the test clears
// the executor's directly.
func TestRecoveredPanicSameQuery(t *testing.T) {
	plan := existsPlan()
	want, err := testEngine(t).Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, func(c *Config) {
		c.MemoryLimit = 64 << 20
		c.Faults = govern.NewInjector(map[string]string{"exec.scan": "panic"})
	})
	strategies := []Strategy{Native, Unnest, GMDJ, GMDJOpt}
	for _, s := range strategies {
		if _, err := e.Run(plan, s); !errors.Is(err, govern.ErrInternal) {
			t.Fatalf("%v: err = %v, want ErrInternal", s, err)
		}
	}
	e.exec.Faults = nil
	for _, s := range strategies {
		got, err := e.Run(plan, s)
		if err != nil {
			t.Fatalf("%v after recovered panic: %v", s, err)
		}
		if d := want.Diff(got); d != "" {
			t.Errorf("%v after recovered panic: %s", s, d)
		}
	}
	if inUse := e.MemStatus().Pool.InUse; inUse != 0 {
		t.Errorf("pool bytes leaked: %d in use after queries", inUse)
	}
}

func TestParallelWorkersAgree(t *testing.T) {
	plan := existsPlan()
	serial, err := testEngine(t, withDegree(1)).Run(plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := testEngine(t, withDegree(4)).Run(plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if d := serial.Diff(par); d != "" {
		t.Errorf("parallel GMDJ differs: %s", d)
	}
}

func TestTableSchemaResolver(t *testing.T) {
	e := testEngine(t)
	s, err := e.TableSchema("Flow")
	if err != nil || s.Len() != 5 {
		t.Errorf("TableSchema(Flow) = %v, %v", s, err)
	}
	if _, err := e.TableSchema("Missing"); err == nil {
		t.Error("unknown table must error")
	}
}
