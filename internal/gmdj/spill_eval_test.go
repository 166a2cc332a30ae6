package gmdj

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// spillFixture builds a base/detail pair large enough that the
// estimated base state (~200 rows x ~200 bytes) overflows a small
// reservation and forces the spill regime.
func spillFixture() (*relation.Relation, *relation.Relation, []algebra.GMDJCond) {
	rng := rand.New(rand.NewSource(23))
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := 0; i < 200; i++ {
		base.Append(relation.Tuple{value.Int(int64(rng.Intn(40)))})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "R", Name: "v", Type: value.KindInt},
	))
	for i := 0; i < 2000; i++ {
		detail.Append(relation.Tuple{value.Int(int64(rng.Intn(40))), value.Int(int64(rng.Intn(100)))})
	}
	conds := []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs: []agg.Spec{
			{Func: agg.CountStar, As: "cnt"},
			{Func: agg.Sum, Arg: expr.C("R.v"), As: "s"},
		},
	}}
	return base, detail, conds
}

// tinyTracker acquires a reservation from an 8 KiB pool — far below
// the fixture's state estimate — so Evaluate must spill.
func tinyTracker(t *testing.T) (*mem.Tracker, func()) {
	t.Helper()
	return poolTracker(t, 8<<10)
}

// poolTracker acquires a reservation from a pool of limit bytes.
func poolTracker(t *testing.T, limit int64) (*mem.Tracker, func()) {
	t.Helper()
	p := mem.NewPool(limit, time.Second)
	res, err := p.Acquire(context.Background(), mem.DefaultQueryReserve)
	if err != nil {
		t.Fatal(err)
	}
	return res.Tracker("gmdj"), res.Release
}

// TestSpillParity: with a reservation that forces >= 2 partitions to
// disk, the spilled evaluation must return byte-identical results to
// the unbounded in-memory run, serially and in parallel — and, the
// program being routed, still read the detail once.
func TestSpillParity(t *testing.T) {
	base, detail, conds := spillFixture()
	full, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 4} {
		tr, release := tinyTracker(t)
		store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
		if err != nil {
			t.Fatal(err)
		}
		var stats Stats
		got, err := Evaluate(base, detail, conds, Options{
			Workers: workers, Mem: tr, Spill: store, Stats: &stats,
		})
		release()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if d := full.Diff(got); d != "" {
			t.Errorf("workers=%d: spilled result differs: %s", workers, d)
		}
		if stats.SpillPartitions < 2 {
			t.Errorf("workers=%d: SpillPartitions = %d, want >= 2", workers, stats.SpillPartitions)
		}
		if stats.SpillBytesWritten <= 0 || stats.SpillBytesRead <= 0 {
			t.Errorf("workers=%d: spill traffic = %d written / %d read, want > 0",
				workers, stats.SpillBytesWritten, stats.SpillBytesRead)
		}
		if stats.DetailScans != 1 || stats.ExtraDetailScans != 0 || stats.DetailRows+stats.ShortCircuitRows != int64(detail.Len()) {
			t.Errorf("workers=%d: DetailScans = %d, ExtraDetailScans = %d, %d rows fed + %d skipped; want 1, 0 and |detail| = %d",
				workers, stats.DetailScans, stats.ExtraDetailScans, stats.DetailRows, stats.ShortCircuitRows, detail.Len())
		}
		if n := store.LiveFiles(); n != 0 {
			t.Errorf("workers=%d: %d spill files leaked", workers, n)
		}
	}
}

// bigSpillFixture is spillFixture's base and condition over a detail of
// 2×MorselRows+1 rows, the fewest that give the detail pass two
// workers: at Workers > 1 a spilled run then folds two partitions or
// more in one round. spillFixture keeps its sizes, which the cuts pin.
func bigSpillFixture() (*relation.Relation, *relation.Relation, []algebra.GMDJCond) {
	base, small, conds := spillFixture()
	rng := rand.New(rand.NewSource(29))
	detail := relation.New(small.Schema)
	for i := 0; i < 2*govern.MorselRows+1; i++ {
		detail.Append(relation.Tuple{value.Int(int64(rng.Intn(40))), value.Int(int64(rng.Intn(100)))})
	}
	return base, detail, conds
}

// spillRun evaluates under a pool of limit bytes with a fresh spill
// store; it returns what the tracker still holds and how many spill
// files are left. A 40 KiB pool cuts the base state (48 000 B) into four
// partitions and holds two or three at once.
func spillRun(t *testing.T, limit int64, base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options, faults string) (out *relation.Relation, used int64, live int, err error) {
	t.Helper()
	in, err := govern.ParseFaults(faults)
	if err != nil {
		t.Fatal(err)
	}
	tr, release := poolTracker(t, limit)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), in)
	if err != nil {
		t.Fatal(err)
	}
	opts.Mem, opts.Spill = tr, store
	out, err = Evaluate(base, detail, conds, opts)
	return out, tr.Used(), store.LiveFiles(), err
}

// TestSpillParityConcurrent: at Workers 2 and 4 the detail is large
// enough for a pass of two workers, so a round folds two partitions or
// more at once — with the unlimited run's result, Workers 1's counters,
// every round's charge given back and every spill file swept. Under the
// 8 KiB pool the fan-out must cut partitions small enough for a round to
// hold two. An unrouted program — two conditions on different keys —
// scans the detail once per partition, so its fan-out keeps the
// minPartitionBytes floor: under the 8 KiB pool it cuts the 62 400 B
// state into four, which the worklist splits until they fit — twelve
// scans at every degree, where a cut sized to the pool alone takes
// fourteen.
func TestSpillParityConcurrent(t *testing.T) {
	base, detail, conds := bigSpillFixture()
	full, err := Evaluate(base, detail, conds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{40 << 10, 8 << 10} {
		var serial Stats
		for _, workers := range []int{1, 2, 4} {
			var stats Stats
			got, used, live, err := spillRun(t, limit, base, detail, conds, Options{Workers: workers, Stats: &stats}, "")
			if err != nil {
				t.Fatalf("pool=%d workers=%d: %v", limit, workers, err)
			}
			if d := full.Diff(got); d != "" {
				t.Errorf("pool=%d workers=%d: spilled result differs: %s", limit, workers, d)
			}
			if used != 0 || live != 0 {
				t.Errorf("pool=%d workers=%d: %d bytes still charged, %d spill files left; want 0 and 0", limit, workers, used, live)
			}
			if stats.SpillPartitions < 2 {
				t.Errorf("pool=%d workers=%d: SpillPartitions = %d, want >= 2", limit, workers, stats.SpillPartitions)
			}
			if workers == 1 {
				serial = stats
				continue
			}
			if stats.Matches != serial.Matches || stats.Completed != serial.Completed || stats.DetailRows != serial.DetailRows || stats.Probes != serial.Probes {
				t.Errorf("pool=%d workers=%d: matches/completed/detail rows/probes = %d/%d/%d/%d, want Workers 1's %d/%d/%d/%d", limit, workers,
					stats.Matches, stats.Completed, stats.DetailRows, stats.Probes, serial.Matches, serial.Completed, serial.DetailRows, serial.Probes)
			}
			if len(stats.WorkerRows) < 2 {
				t.Errorf("pool=%d workers=%d: WorkerRows = %v, want a round of two partitions or more", limit, workers, stats.WorkerRows)
			}
		}
	}
	twoKeys := append(conds[:1:1], algebra.GMDJCond{Theta: expr.Eq(expr.C("B.k"), expr.C("R.v")), Aggs: []agg.Spec{{Func: agg.CountStar, As: "c2"}}})
	if full, err = Evaluate(base, detail, twoKeys, Options{}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var stats Stats
		got, used, live, err := spillRun(t, 8<<10, base, detail, twoKeys, Options{Workers: workers, Stats: &stats}, "")
		if err != nil {
			t.Fatalf("unrouted, workers=%d: %v", workers, err)
		}
		if d := full.Diff(got); d != "" {
			t.Errorf("unrouted, workers=%d: spilled result differs: %s", workers, d)
		}
		if used != 0 || live != 0 {
			t.Errorf("unrouted, workers=%d: %d bytes still charged, %d spill files left; want 0 and 0", workers, used, live)
		}
		if stats.DetailScans != 12 || stats.ExtraDetailScans != 11 {
			t.Errorf("unrouted, workers=%d: DetailScans = %d, ExtraDetailScans = %d; want 12 and 11", workers, stats.DetailScans, stats.ExtraDetailScans)
		}
	}
}

// TestSpillConcurrentRoundFailures: a round that fails — a read-back
// after a partition of the round was admitted, a worker's error or
// panic, a cancel while a partition folds — ends in its typed error,
// gives every admitted partition's charge back and sweeps every file.
func TestSpillConcurrentRoundFailures(t *testing.T) {
	base, detail, conds := bigSpillFixture()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	var seen atomic.Int64
	at := &cancelAt{col: expr.NewArith(expr.OpSub, expr.C("B.k"), expr.C("R.k")), cancel: cancel, fired: &fired, seen: &seen}
	canceling := []algebra.GMDJCond{{Theta: expr.NewAnd(conds[0].Theta, at), Aggs: conds[0].Aggs}}
	for _, tc := range []struct {
		name, faults string
		conds        []algebra.GMDJCond
		opts         Options
		want         error
	}{
		{"spill.read=corrupt", "spill.read=corrupt", conds, Options{}, spill.ErrSpillIO},
		{"spill.read=corrupt@3", "spill.read=corrupt@3", conds, Options{}, spill.ErrSpillIO},
		{"gmdj.worker=error", "", conds, Options{Faults: govern.NewInjector(map[string]string{"gmdj.worker": "error"})}, govern.ErrInjected},
		{"gmdj.worker=panic", "", conds, Options{Faults: govern.NewInjector(map[string]string{"gmdj.worker": "panic"})}, govern.ErrInternal},
		{"cancel", "", canceling, Options{Gov: govern.New(ctx, govern.Budget{})}, govern.ErrCanceled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stats Stats
			tc.opts.Workers, tc.opts.Stats = 2, &stats
			_, used, live, err := spillRun(t, 40<<10, base, detail, tc.conds, tc.opts, tc.faults)
			if !errors.Is(err, tc.want) || stats.SpillPartitions < 2 {
				t.Fatalf("err = %v after spilling %d partitions, want %v after spilling", err, stats.SpillPartitions, tc.want)
			}
			var ie *govern.InternalError
			if tc.want == govern.ErrInternal && !errors.As(err, &ie) {
				t.Errorf("err = %T, want *govern.InternalError", err)
			}
			if used != 0 || live != 0 {
				t.Errorf("%d bytes still charged, %d spill files left; want 0 and 0", used, live)
			}
		})
	}
	if !fired.Load() {
		t.Error("the cancel never fired")
	}
}

// TestSpillCutsAreReproducible pins the spill regime's observable
// footprint for a fixed input under a fixed reservation. The cuts come
// from the key hash's top bits and the file sizes from the positions
// codec, both fixed functions, so the numbers are the same in every
// process — a shrunk failure replays, and a change to either shows up
// here. The 48 000 B state over an 8 KiB pool cuts into 16 hash
// partitions, 13 of them non-empty: 6 resident rows and twelve files
// holding the other 194. Each file is a 21-byte frame header, a
// one-byte position count and hash count, and per row a one-byte
// position delta and an 8-byte key hash, so 12×23 + 194×9 = 2022 bytes.
func TestSpillCutsAreReproducible(t *testing.T) {
	base, detail, conds := spillFixture()
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if _, err := Evaluate(base, detail, conds, Options{Workers: 1, Mem: tr, Spill: store, Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	if stats.SpillPartitions != 12 || stats.SpillBytesWritten != 2022 || stats.SpillBytesRead != 2022 {
		t.Errorf("spill footprint = %d partitions, %d bytes written, %d read; want 12, 2022, 2022",
			stats.SpillPartitions, stats.SpillBytesWritten, stats.SpillBytesRead)
	}
}

// TestSpillParityWithCompletion: tuple completion (the Theorem 3.1
// machinery) must survive the spill regime unchanged.
func TestSpillParityWithCompletion(t *testing.T) {
	base, detail, conds := spillFixture()
	comp := &algebra.CompletionInfo{
		Atoms: []algebra.CompletionAtom{{Cond: 0, Kind: algebra.AtomZero}},
		Tree:  algebra.Leaf(0),
	}
	full, err := Evaluate(base, detail, conds, Options{Completion: comp})
	if err != nil {
		t.Fatal(err)
	}
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	got, err := Evaluate(base, detail, conds, Options{
		Completion: comp, Mem: tr, Spill: store, Stats: &stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := full.Diff(got); d != "" {
		t.Errorf("spilled completion result differs: %s", d)
	}
	if stats.SpillPartitions < 2 {
		t.Errorf("SpillPartitions = %d, want >= 2", stats.SpillPartitions)
	}
}

// TestSpillPreservesBaseOrder: output rows must appear in original
// base order even though partitions complete out of order.
func TestSpillPreservesBaseOrder(t *testing.T) {
	base := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "B", Name: "k", Type: value.KindInt},
	))
	for i := int64(0); i < 300; i++ {
		base.Append(relation.Tuple{value.Int(i)})
	}
	detail := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "R", Name: "k", Type: value.KindInt},
	))
	conds := []algebra.GMDJCond{{
		Theta: expr.Eq(expr.C("B.k"), expr.C("R.k")),
		Aggs:  []agg.Spec{{Func: agg.CountStar, As: "cnt"}},
	}}
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	out, err := Evaluate(base, detail, conds, Options{Mem: tr, Spill: store, Stats: &stats})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SpillPartitions < 1 {
		t.Fatalf("fixture did not spill (partitions = %d)", stats.SpillPartitions)
	}
	for i, row := range out.Rows {
		if row[0].AsInt() != int64(i) {
			t.Fatalf("row %d out of order: %v", i, row)
		}
	}
}

// TestSpillKillRegime: memory pressure with no spill store must fail
// with the typed memory-budget error, not a panic or a silent OOM.
func TestSpillKillRegime(t *testing.T) {
	base, detail, conds := spillFixture()
	tr, release := tinyTracker(t)
	defer release()
	_, err := Evaluate(base, detail, conds, Options{Mem: tr})
	if !errors.Is(err, govern.ErrMemBudget) {
		t.Fatalf("err = %v, want ErrMemBudget", err)
	}
	var be *govern.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *govern.BudgetError", err)
	}
}

// TestSpillDiskFaults: injected disk faults during a spilled run must
// surface as typed spill I/O errors and leave no temp files behind.
func TestSpillDiskFaults(t *testing.T) {
	base, detail, conds := spillFixture()
	for _, spec := range []string{
		"spill.write=enospc",
		"spill.write=shortwrite",
		"spill.read=corrupt",
	} {
		t.Run(spec, func(t *testing.T) {
			in, err := govern.ParseFaults(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr, release := tinyTracker(t)
			defer release()
			store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), in)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Evaluate(base, detail, conds, Options{Mem: tr, Spill: store})
			if !errors.Is(err, spill.ErrSpillIO) {
				t.Fatalf("err = %v, want ErrSpillIO", err)
			}
			if n := store.LiveFiles(); n != 0 {
				t.Errorf("%d spill files leaked after fault", n)
			}
			entries, err := os.ReadDir(store.Dir())
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("leftover temp file %s", e.Name())
			}
		})
	}
}

// TestSpillCancellation: governor cancellation between partitions must
// abort the spilled run with the canceled error and clean up files.
func TestSpillCancellation(t *testing.T) {
	base, detail, conds := spillFixture()
	ctx, cancel := context.WithCancel(context.Background())
	gov := govern.New(ctx, govern.Budget{})
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel() // cancel before evaluation: the first Gov.Check aborts
	_, err = Evaluate(base, detail, conds, Options{Gov: gov, Mem: tr, Spill: store})
	if !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if n := store.LiveFiles(); n != 0 {
		t.Errorf("%d spill files leaked after cancellation", n)
	}
}

// TestSpillCancellationMidway: a cancel landing while a spilled run
// folds its resident partition — whose few routed rows leave the scan
// no poll after the cancel — is seen before the next partition is
// taken off the worklist, and every spill file is swept.
func TestSpillCancellationMidway(t *testing.T) {
	base, detail, _ := spillFixture()
	detail.Rows = detail.Rows[:600] // under a scan chunk a key partition
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	var seen atomic.Int64
	at := &cancelAt{col: expr.NewArith(expr.OpSub, expr.C("B.k"), expr.C("R.k")), cancel: cancel, fired: &fired, seen: &seen}
	conds := []algebra.GMDJCond{{Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")), at), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	_, err = Evaluate(base, detail, conds, Options{Gov: govern.New(ctx, govern.Budget{}), Mem: tr, Spill: store, Stats: &stats})
	if !errors.Is(err, govern.ErrCanceled) || !fired.Load() || stats.SpillPartitions < 2 {
		t.Fatalf("err = %v (cancel fired: %v, %d partitions spilled), want ErrCanceled after spilling", err, fired.Load(), stats.SpillPartitions)
	}
	if n := store.LiveFiles(); n != 0 {
		t.Errorf("%d spill files leaked after cancellation", n)
	}
}

// TestSpillPositionsForged: a spill file whose frame checks out but
// names a position past the base — rewritten while the resident
// partition folds — fails the evaluation with an error, not an
// out-of-range gather, and every spill file is swept.
func TestSpillPositionsForged(t *testing.T) {
	base, detail, _ := spillFixture()
	tr, release := tinyTracker(t)
	defer release()
	store, err := spill.NewStore(filepath.Join(t.TempDir(), "scratch"), nil)
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	forge := func() {
		files, _ := filepath.Glob(filepath.Join(store.Dir(), "*.spill"))
		for _, name := range files {
			frame, err := os.ReadFile(name)
			if err != nil {
				t.Error(err)
				return
			}
			payload, _, err := spill.DecodeFrame(frame)
			if err != nil {
				t.Error(err)
				return
			}
			idx, hash, err := spill.DecodePositions(payload, base.Len())
			if err != nil {
				t.Error(err)
				return
			}
			idx[len(idx)-1] = int32(base.Len())
			if err := os.WriteFile(name, spill.AppendFrame(nil, spill.EncodePositions(idx, hash)), 0o644); err != nil {
				t.Error(err)
			}
			forged++
		}
	}
	var fired atomic.Bool
	var seen atomic.Int64
	at := &cancelAt{col: expr.NewArith(expr.OpSub, expr.C("B.k"), expr.C("R.k")), cancel: forge, fired: &fired, seen: &seen}
	conds := []algebra.GMDJCond{{Theta: expr.NewAnd(expr.Eq(expr.C("B.k"), expr.C("R.k")), at), Aggs: []agg.Spec{{Func: agg.CountStar, As: "cnt"}}}}
	var stats Stats
	if _, err := Evaluate(base, detail, conds, Options{Workers: 1, Mem: tr, Spill: store, Stats: &stats}); err == nil || forged < 2 {
		t.Fatalf("err = %v after forging %d of %d spill files, want an error", err, forged, stats.SpillPartitions)
	}
	if n := store.LiveFiles(); n != 0 {
		t.Errorf("%d spill files leaked", n)
	}
	if entries, _ := os.ReadDir(store.Dir()); len(entries) != 0 {
		t.Errorf("%d files left in the scratch directory", len(entries))
	}
}
