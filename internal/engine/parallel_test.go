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
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// TestParallelismConfig pins the configuration precedence: the default
// is GOMAXPROCS, GMDJ_PARALLEL overrides the default, explicit
// SetParallelism overrides the environment, and non-positive or
// malformed environment values are ignored.
func TestParallelismConfig(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 10, Hours: 2, Users: 2, Seed: 1})

	// Isolate from any ambient GMDJ_PARALLEL (CI runs the whole suite
	// under a forced degree); empty means unset.
	t.Setenv(EnvParallel, "")
	fresh := func() int { // a new engine's degree
		e := New(cat)
		defer e.Close()
		return e.Parallelism()
	}

	if got, want := fresh(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("default parallelism = %d, want GOMAXPROCS = %d", got, want)
	}

	t.Setenv(EnvParallel, "3")
	e := New(cat)
	defer e.Close()
	if got := e.Parallelism(); got != 3 {
		t.Errorf("with %s=3, parallelism = %d", EnvParallel, got)
	}
	e.SetParallelism(5)
	if got := e.Parallelism(); got != 5 {
		t.Errorf("SetParallelism(5) over env: parallelism = %d", got)
	}
	e.SetParallelism(0)
	if got, want := e.Parallelism(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("SetParallelism(0) = %d, want GOMAXPROCS = %d", got, want)
	}

	for _, bad := range []string{"zero", "-2", "0"} {
		t.Setenv(EnvParallel, bad)
		if got, want := fresh(), runtime.GOMAXPROCS(0); got != want {
			t.Errorf("with %s=%q, parallelism = %d, want default %d", EnvParallel, bad, got, want)
		}
	}
}

// TestParallelismMemClamp: the memory accountant bounds the effective
// degree at mem.PerWorkerBytes of pool per worker, re-clamping
// whenever either knob moves.
func TestParallelismMemClamp(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 10, Hours: 2, Users: 2, Seed: 1})
	e := New(cat)
	e.SetParallelism(8)
	e.SetMemoryLimit(2 * mem.PerWorkerBytes)
	defer e.Close()
	if got := e.exec.Parallelism; got != 2 {
		t.Errorf("effective degree under a 2-worker pool = %d, want 2", got)
	}
	if got := e.Parallelism(); got != 8 {
		t.Errorf("configured degree should survive the clamp, got %d", got)
	}
	e.SetMemoryLimit(0)
	if got := e.exec.Parallelism; got != 8 {
		t.Errorf("removing the limit should restore the configured degree, got %d", got)
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
	e := New(cat)
	defer e.Close()
	e.SetParallelism(8)
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

	serial := New(cat)
	defer serial.Close()
	serial.SetParallelism(1)
	want, err := serial.RunContext(context.Background(), plan, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}

	e := New(cat)
	defer e.Close()
	e.SetParallelism(4)
	e.SetMemoryLimit(2 * mem.PerWorkerBytes)
	e.SetSpillDir(t.TempDir())
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
