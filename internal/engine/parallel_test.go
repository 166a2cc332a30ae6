package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// TestParallelismConfig pins the configuration precedence: the default
// is GOMAXPROCS, GMDJ_PARALLEL overrides the default, an option
// overrides the environment, and non-positive or malformed environment
// values are ignored.
func TestParallelismConfig(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 10, Hours: 2, Users: 2, Seed: 1})
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct {
		env  string // "" = unset: CI runs the whole suite under a forced degree
		opts []Option
		want int
	}{
		{"", nil, procs},
		{"3", nil, 3},
		{"3", []Option{withDegree(5)}, 5},
		{"zero", nil, procs},
		{"-2", nil, procs},
		{"0", nil, procs},
	} {
		t.Setenv(EnvParallel, c.env)
		e := New(cat, c.opts...)
		if got := e.Config().Parallelism; got != c.want {
			t.Errorf("%s=%q with %d option(s): parallelism = %d, want %d", EnvParallel, c.env, len(c.opts), got, c.want)
		}
		e.Close()
	}
}

// TestParallelismMemClamp: the memory accountant bounds the effective
// degree at mem.PerWorkerBytes of pool per worker; without a limit the
// configured degree runs as is.
func TestParallelismMemClamp(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 10, Hours: 2, Users: 2, Seed: 1})
	t.Setenv(mem.EnvMem, "")
	e := New(cat, withDegree(8), func(c *Config) { c.MemoryLimit = 2 * mem.PerWorkerBytes })
	defer e.Close()
	if got := e.exec.Parallelism; got != 2 {
		t.Errorf("effective degree under a 2-worker pool = %d, want 2", got)
	}
	if got := e.Config().Parallelism; got != 8 {
		t.Errorf("configured degree should survive the clamp, got %d", got)
	}
	unlimited := New(cat, withDegree(8))
	defer unlimited.Close()
	if got := unlimited.exec.Parallelism; got != 8 {
		t.Errorf("without a limit the configured degree should run, got %d", got)
	}
}

// TestPlanCacheStaysInMemory: with a limit, a spill dir and a small
// plan cache, the cache evicts in memory under its own budget; it
// writes no scratch file and charges nothing to the engine's pool.
func TestPlanCacheStaysInMemory(t *testing.T) {
	e := New(storage.NewCatalog(), func(c *Config) {
		c.MemoryLimit, c.SpillDir, c.PlanCacheBytes = 1<<20, t.TempDir(), 1
	})
	defer e.Close()
	ent := func() *plancache.Entry {
		return &plancache.Entry{Plan: &algebra.Scan{Table: "t"}, Tables: []string{"t"}, SchemaEpoch: 1}
	}
	e.PlanCache().Put(plancache.Key{Text: "a"}, ent())
	e.PlanCache().Put(plancache.Key{Text: "b"}, ent()) // over the 1-byte budget: a is evicted
	if s := e.PlanCache().Stats(); s.Evictions != 1 || s.Entries != 1 {
		t.Errorf("plan cache stats = %+v, want one eviction and b alone", s)
	}
	if _, ok := e.PlanCache().Get(plancache.Key{Text: "b"}, 1); !ok {
		t.Error("the newest entry was evicted")
	}
	st := e.MemStatus()
	if !st.SpillEnabled || st.Spill.Writes != 0 || st.Spill.LiveFiles != 0 {
		t.Errorf("engine store = %+v, want enabled and untouched by the plan cache", st.Spill)
	}
	if st.Pool.InUse != 0 {
		t.Errorf("pool in use = %d, want the plan cache outside the pool", st.Pool.InUse)
	}
}

// TestCancellationMidMorsel cancels a context while morsel workers are
// mid-scan over a large table and requires the typed govern.ErrCanceled
// promptly — the cooperative-cancellation path inside the parallel
// filter pipeline, not just between operators.
func TestCancellationMidMorsel(t *testing.T) {
	const rows = 500_000
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "big", Name: "x", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		rel.Append(relation.Tuple{value.Int(int64(i))})
	}
	cat := storage.NewCatalog()
	cat.Register(storage.NewTable("big", rel))
	e := New(cat, withDegree(8))
	defer e.Close()
	plan := algebra.NewRestrict(algebra.NewScan("big", "b"),
		&algebra.Atom{E: expr.NewCmp(value.GE, expr.C("b.x"), expr.IntLit(0))})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.RunContext(ctx, plan, Native)
	if err == nil {
		t.Fatal("query completed before mid-morsel cancellation; grow the table")
	}
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("canceled parallel scan returned %v, want govern.ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; workers are not ticking the governor", elapsed)
	}
}

// TestSpillUnderParallelism runs the hour/flow EXISTS workload with a
// pool small enough to force the GMDJ base state to spill but large
// enough that the clamp still grants two morsel workers — spilling and
// parallelism composing, with rows byte-identical to the unlimited
// serial run.
func TestSpillUnderParallelism(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 5_000, Hours: 5_000, Users: 40, Seed: 11})
	plan := existsPlan()

	serial := New(cat, withDegree(1))
	defer serial.Close()
	want, err := serial.RunContext(context.Background(), plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}

	e := New(cat, withDegree(4), func(c *Config) {
		c.MemoryLimit, c.SpillDir = 2*mem.PerWorkerBytes, t.TempDir()
	})
	defer e.Close()
	if got := e.exec.Parallelism; got != 2 {
		t.Fatalf("effective degree = %d, want 2 (spill and parallelism must coexist)", got)
	}
	got, err := e.RunContext(context.Background(), plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("spilled parallel run differs from unlimited serial run:\n%s", want.Diff(got))
	}
	if e.Metrics()["gmdj.spill_partitions"] == 0 {
		t.Error("pool sized below the base-state estimate, yet nothing spilled")
	}
}
