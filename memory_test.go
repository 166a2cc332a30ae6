package gmdj

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/spill"
)

// memSpillLimit is small enough that governDB(800, ...)'s GMDJ base
// state (~150 KiB estimated) cannot fit and must spill.
const memSpillLimit = 32 << 10

// TestMemSpillParityAllStrategies: with a reservation forcing the GMDJ
// base state to spill across partitions, every strategy must return
// byte-identical rows to the unlimited run, serially and in parallel.
func TestMemSpillParityAllStrategies(t *testing.T) {
	spillDir := t.TempDir()
	for _, workers := range []int{1, 4} {
		plain := governDB(t, 800, 4000, WithParallelism(workers))
		memdb := governDB(t, 800, 4000, WithParallelism(workers),
			WithMemoryLimit(memSpillLimit), WithSpillDir(spillDir))
		for _, s := range allStrategies {
			t.Run(fmt.Sprintf("%v/workers=%d", s, workers), func(t *testing.T) {
				want, err := plain.QueryStrategy(governQuery, s)
				if err != nil {
					t.Fatal(err)
				}
				got, err := memdb.QueryStrategy(governQuery, s)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Columns, got.Columns) {
					t.Fatalf("columns %v vs %v", want.Columns, got.Columns)
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Fatalf("rows differ: %d vs %d", len(want.Rows), len(got.Rows))
				}
			})
		}
		// Each degree's database is checked on its own, so a leak in the
		// serial run is not hidden behind the parallel one.
		ms := memdb.MemStats()
		if !ms.Enabled || !ms.SpillEnabled {
			t.Fatalf("workers=%d: memory posture = %+v, want enabled+spill", workers, ms)
		}
		if ms.SpillWrites == 0 || ms.SpillBytesWritten == 0 {
			t.Errorf("workers=%d: GMDJ runs never spilled: %+v", workers, ms)
		}
		if ms.SpillLiveFiles != 0 {
			t.Errorf("workers=%d: %d spill files leaked", workers, ms.SpillLiveFiles)
		}
		if ms.InUse != 0 {
			t.Errorf("workers=%d: pool bytes leaked: %d in use after queries", workers, ms.InUse)
		}
	}
}

// TestMemSpillReportedInExplain: EXPLAIN ANALYZE must report the spill
// partitions, byte traffic, and the relaxed 1+k scan count.
func TestMemSpillReportedInExplain(t *testing.T) {
	memdb := governDB(t, 800, 4000,
		WithMemoryLimit(memSpillLimit), WithSpillDir(t.TempDir()))
	_, plan, err := memdb.QueryAnalyze(governQuery, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	for _, counter := range []string{"spill_partitions=", "spill_bytes_written=", "spill_bytes_read=", "extra_detail_scans="} {
		if !containsCounter(plan, counter) {
			t.Errorf("analyzed plan missing %s:\n%s", counter, plan)
		}
	}
}

func containsCounter(plan, prefix string) bool {
	for i := 0; i+len(prefix) < len(plan); i++ {
		if plan[i:i+len(prefix)] == prefix && plan[i+len(prefix)] != '0' {
			return true
		}
	}
	return false
}

// TestMemKillRegime: WithSpillDir("") disables degradation — memory
// exhaustion must surface as the typed budget error, and the database
// must stay usable afterwards.
func TestMemKillRegime(t *testing.T) {
	memdb := governDB(t, 800, 4000,
		WithMemoryLimit(memSpillLimit), WithSpillDir(""))
	if ms := memdb.MemStats(); !ms.Enabled || ms.SpillEnabled {
		t.Fatalf("posture = %+v, want pool without spill", ms)
	}
	for _, s := range []Strategy{GMDJ, GMDJOpt} {
		if _, err := memdb.QueryStrategy(governQuery, s); !errors.Is(err, ErrMemBudget) {
			t.Errorf("%v: err = %v, want ErrMemBudget", s, err)
		}
	}
	if _, err := memdb.Query("SELECT hr FROM hours"); err != nil {
		t.Fatalf("database unusable after memory kill: %v", err)
	}
}

// TestMemAdmissionTimeout: a query that cannot get pool memory within
// the admission deadline is shed with the typed error while the
// holder finishes normally.
func TestMemAdmissionTimeout(t *testing.T) {
	// Pin the first query mid-flight so it holds its (whole-pool)
	// reservation while the second tries to get in.
	t.Setenv(govern.EnvFaults, "exec.scan=delay:300ms")
	memdb := governDB(t, 20, 500,
		WithMemoryLimit(64<<10),
		WithSpillDir(t.TempDir()),
		WithAdmissionTimeout(50*time.Millisecond))
	done := make(chan error, 1)
	go func() {
		_, err := memdb.Query(governQuery)
		done <- err
	}()
	time.Sleep(100 * time.Millisecond)
	if _, err := memdb.Query(governQuery); !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
	if ms := memdb.MemStats(); ms.TimedOut != 1 {
		t.Errorf("TimedOut = %d, want 1 (stats %+v)", ms.TimedOut, ms)
	}
}

// TestMemDiskFaultMatrix: every injected disk fault during a spilled
// run must yield the typed spill error, leave the scratch directory
// empty and the pool unreserved, and leave the database answering a
// query that does not spill.
func TestMemDiskFaultMatrix(t *testing.T) {
	for _, site := range []struct{ site, action string }{
		{"spill.write", "enospc"},
		{"spill.write", "shortwrite"},
		{"spill.write", "error"},
		{"spill.read", "corrupt"},
		{"spill.read", "error"},
	} {
		t.Run(site.site+"="+site.action, func(t *testing.T) {
			t.Setenv(govern.EnvFaults, site.site+"="+site.action)
			memdb := governDB(t, 800, 4000,
				WithMemoryLimit(memSpillLimit), WithSpillDir(t.TempDir()))
			_, err := memdb.QueryStrategy(governQuery, GMDJOpt)
			if !errors.Is(err, ErrSpillIO) {
				t.Fatalf("err = %v, want ErrSpillIO", err)
			}
			ms := memdb.MemStats()
			if ms.SpillLiveFiles != 0 || ms.InUse != 0 {
				t.Errorf("%d spill files and %d pool bytes leaked", ms.SpillLiveFiles, ms.InUse)
			}
			entries, err := os.ReadDir(ms.SpillDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				t.Errorf("leftover temp file %s", e.Name())
			}
			if _, err := memdb.Query("SELECT hr FROM hours"); err != nil {
				t.Fatalf("database unusable after disk faults: %v", err)
			}
		})
	}
}

// TestMemEnvConfig: GMDJ_MEM supplies the three knobs at Open.
func TestMemEnvConfig(t *testing.T) {
	t.Setenv("GMDJ_MEM", "limit=32KiB,spill="+t.TempDir()+",admission=1s")
	memdb := governDB(t, 800, 4000) // plain Open picks up the env
	defer memdb.Close()
	ms := memdb.MemStats()
	if !ms.Enabled || ms.Capacity != 32<<10 || !ms.SpillEnabled {
		t.Fatalf("env config not applied: %+v", ms)
	}
	if _, err := memdb.QueryStrategy(governQuery, GMDJOpt); err != nil {
		t.Fatal(err)
	}
	if ms := memdb.MemStats(); ms.SpillWrites == 0 {
		t.Errorf("env-configured limit never spilled: %+v", ms)
	}
}

// TestConfigPrecedence: for each knob an option beats the GMDJ_*
// environment, which beats the built-in default, and a zero numeric
// option is not set. What Open builds follows the resolved Config.
func TestConfigPrecedence(t *testing.T) {
	envSpill, optSpill := t.TempDir(), t.TempDir()
	const env = "env"
	type knobs struct {
		parallel  int
		limit     int64
		admission time.Duration
		spill     string
		planBytes int64
	}
	for _, c := range []struct {
		name string
		env  string // "env" sets GMDJ_PARALLEL and GMDJ_MEM, "" clears them
		opts []Option
		want knobs
	}{
		{"defaults", "", nil, knobs{runtime.GOMAXPROCS(0), 0, 0, spill.DefaultRoot(), 0}},
		{"env", env, nil, knobs{3, 1 << 20, 2 * time.Second, envSpill, 0}},
		{"zero options keep env", env, []Option{WithParallelism(0), WithMemoryLimit(0), WithAdmissionTimeout(0)},
			knobs{3, 1 << 20, 2 * time.Second, envSpill, 0}},
		{"zero plan cache takes the default size", "", []Option{WithPlanCache(0)},
			knobs{runtime.GOMAXPROCS(0), 0, 0, spill.DefaultRoot(), 0}},
		{"options beat env", env, []Option{WithParallelism(5), WithMemoryLimit(2 << 20),
			WithAdmissionTimeout(time.Second), WithSpillDir(optSpill), WithPlanCache(-1)},
			knobs{5, 2 << 20, time.Second, optSpill, -1}},
		{"negative limit unsets env", env, []Option{WithMemoryLimit(-1), WithSpillDir("")},
			knobs{3, -1, 2 * time.Second, "", 0}},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Setenv("GMDJ_PARALLEL", "")
			t.Setenv("GMDJ_MEM", "")
			if c.env == env {
				t.Setenv("GMDJ_PARALLEL", "3")
				t.Setenv("GMDJ_MEM", "limit=1MiB,admission=2s,spill="+envSpill)
			}
			db := Open(c.opts...)
			defer db.Close()
			cfg := db.eng.Config()
			got := knobs{cfg.Parallelism, cfg.MemoryLimit, cfg.AdmissionTimeout, cfg.SpillDir, cfg.PlanCacheBytes}
			if got != c.want {
				t.Fatalf("resolved %+v, want %+v", got, c.want)
			}
			ms := db.MemStats()
			if ms.Enabled != (c.want.limit > 0) || ms.Capacity != max(c.want.limit, 0) ||
				ms.SpillEnabled != (c.want.limit > 0 && c.want.spill != "") {
				t.Errorf("built memory posture %+v does not follow the config", ms)
			}
			if (db.eng.PlanCache() != nil) != (c.want.planBytes >= 0) {
				t.Errorf("plan cache built: %v", db.eng.PlanCache() != nil)
			}
		})
	}
}

// TestMemCloseRemovesScratch: Close deletes the scratch directory; the
// DB survives for in-memory work.
func TestMemCloseRemovesScratch(t *testing.T) {
	memdb := governDB(t, 800, 4000,
		WithMemoryLimit(memSpillLimit), WithSpillDir(t.TempDir()))
	if _, err := memdb.QueryStrategy(governQuery, GMDJOpt); err != nil {
		t.Fatal(err)
	}
	dir := memdb.MemStats().SpillDir
	if dir == "" {
		t.Fatal("no scratch dir")
	}
	if err := memdb.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("scratch dir %s survived Close", dir)
	}
	if err := memdb.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := memdb.Query("SELECT hr FROM hours"); err != nil {
		t.Fatalf("database unusable after Close: %v", err)
	}
}

// TestMemNetflowSpillParity: the paper's Example 2.3-shaped workload
// (netflow hours x flows) agrees between unlimited and spilled runs.
func TestMemNetflowSpillParity(t *testing.T) {
	const q = `SELECT h.HourDsc FROM Hours h WHERE EXISTS (
	        SELECT * FROM Flow f
	        WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
	          AND f.Protocol = 'FTP')`
	plain := OpenNetflowSample(8000)
	defer plain.Close()
	// The Hours base is only 24 rows (~4 KiB of estimated state), so the
	// limit must be tiny to force the spill regime.
	memdb := OpenNetflowSample(8000,
		WithMemoryLimit(2<<10), WithSpillDir(t.TempDir()))
	defer memdb.Close()
	want, err := plain.QueryStrategy(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := memdb.QueryStrategy(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("netflow rows differ: %d vs %d", len(want.Rows), len(got.Rows))
	}
	if ms := memdb.MemStats(); ms.SpillWrites == 0 {
		t.Errorf("netflow workload never spilled: %+v", ms)
	}
}

// TestMemCloseShedsQueuedQueries: DB.Close while queries sit in the
// admission queue must shed them promptly with the typed ErrClosed —
// not deadlock, and not strand them until their admission deadlines.
func TestMemCloseShedsQueuedQueries(t *testing.T) {
	// Pin the first query mid-flight so it holds the whole pool while
	// the others queue behind it.
	t.Setenv(govern.EnvFaults, "exec.scan=delay:500ms")
	memdb := governDB(t, 20, 500,
		WithMemoryLimit(64<<10),
		WithSpillDir(t.TempDir()),
		WithAdmissionTimeout(30*time.Second))
	holder := make(chan error, 1)
	go func() {
		_, err := memdb.Query(governQuery)
		holder <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for memdb.MemStats().InUse == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder query never acquired the pool")
		}
		time.Sleep(time.Millisecond)
	}
	const queued = 4
	errs := make(chan error, queued)
	for i := 0; i < queued; i++ {
		go func() {
			_, err := memdb.Query(governQuery)
			errs <- err
		}()
	}
	for memdb.MemStats().Queued < queued {
		if time.Now().After(deadline) {
			t.Fatalf("only %d queries queued", memdb.MemStats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	if err := memdb.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i := 0; i < queued; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("queued query got %v, want ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued query deadlocked across Close")
		}
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("shed took %v; waiters sat out their admission deadline", waited)
	}
	// The holder finishes normally, and the closed DB still answers
	// queries (unaccounted).
	if err := <-holder; err != nil {
		t.Fatalf("holder query failed: %v", err)
	}
	if _, err := memdb.Query(governQuery); err != nil {
		t.Fatalf("query after Close: %v", err)
	}
}
