package gmdj

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/obs"
)

// Counters live once, on the component that owns the event, per DB.
// These tests pin what a process-global registry could not offer:
// isolation between databases, absolute values, and every rendering
// of a counter agreeing with every other.

const (
	fig4SQL = `SELECT A.a_key FROM A WHERE A.a_val <> ALL (SELECT B.b_val FROM B WHERE B.b_key <> A.a_key)`
	fig5SQL = `SELECT C.c_custkey FROM customer C
		WHERE EXISTS (SELECT * FROM orders O1 WHERE O1.o_custkey = C.c_custkey AND O1.o_orderstatus = 'O' AND O1.o_totalprice > 300000)
		  AND EXISTS (SELECT * FROM orders O2 WHERE O2.o_custkey = C.c_custkey AND O2.o_orderstatus = 'F' AND O2.o_totalprice < 150000)`
)

// hermeticEnv clears the GMDJ_* defaults for tests that assert on
// exactly which owners exist (CI runs the suite under each of them).
func hermeticEnv(t *testing.T) {
	t.Helper()
	for _, name := range []string{"GMDJ_MEM", "GMDJ_DATA_DIR", "GMDJ_FAULTS"} {
		t.Setenv(name, "")
	}
}

// corpusDB opens the fig4/fig5 corpus (the key-pair tables plus a
// TPC-R-like warehouse) under a memory limit small enough to spill,
// with a data directory — the configuration in which every owner of a
// counter has something to count.
func corpusDB(t *testing.T) *DB {
	t.Helper()
	hermeticEnv(t)
	cat := datagen.KeyPair(datagen.KeyPairOpts{Rows: 600, Seed: 11})
	tpcr := datagen.TPCR(datagen.TPCROpts{Customers: 150, Orders: 2_000, Suppliers: 10, Parts: 50, Seed: 12})
	for _, name := range tpcr.Names() {
		tbl, err := tpcr.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		cat.Register(tbl)
	}
	db := newDB(cat, []Option{
		WithMemoryLimit(memSpillLimit), WithSpillDir(t.TempDir()),
		WithDataDir(t.TempDir()),
	})
	t.Cleanup(func() { db.Close() })
	return db
}

// runCorpus runs both figure queries under every strategy and a derived
// table under Native (a source charged to the query's subquery
// tracker), twice, so the second pass hits the plan cache.
func runCorpus(t *testing.T, db *DB) {
	t.Helper()
	for pass := 0; pass < 2; pass++ {
		for _, q := range []string{fig4SQL, fig5SQL} {
			for _, s := range allStrategies {
				if _, err := db.QueryStrategy(q, s); err != nil {
					t.Fatalf("%v: %v", s, err)
				}
			}
		}
		if _, err := db.QueryStrategy(`SELECT C.c_custkey FROM customer C WHERE C.c_custkey IN (SELECT big.o_custkey FROM (SELECT O.o_custkey FROM orders O WHERE O.o_totalprice > 300000) AS big)`, Native); err != nil {
			t.Fatalf("derived table: %v", err)
		}
	}
}

// promSamples scrapes db once and returns every sample keyed by
// "family" or "family{event=...}".
func promSamples(t *testing.T, db *DB) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WritePromMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v, err := obs.ParsePromSample(line)
		if err != nil {
			t.Fatal(err)
		}
		if ev, ok := labels["event"]; ok {
			name += "{event=" + ev + "}"
		}
		if len(labels) <= 1 {
			out[name] = v
		}
	}
	return out
}

// TestMetricsPerDB: queries on one database leave another's counters
// untouched — both in Metrics and in its Prometheus events family —
// and two databases working concurrently each count only their own.
func TestMetricsPerDB(t *testing.T) {
	hermeticEnv(t)
	busy, idle := governDB(t, 50, 500), governDB(t, 50, 500)
	defer busy.Close()
	defer idle.Close()
	if _, err := busy.Query(governQuery); err != nil {
		t.Fatal(err)
	}
	if got := busy.Metrics()["queries.gmdj-opt"]; got != 1 {
		t.Errorf("busy queries.gmdj-opt = %d, want 1", got)
	}
	if m := idle.Metrics(); len(m) != 0 {
		t.Errorf("idle DB counted another DB's events: %v", m)
	}
	for name := range promSamples(t, idle) {
		if strings.HasPrefix(name, "gmdj_engine_events_total") {
			t.Errorf("idle DB exposes %s", name)
		}
	}

	var wg sync.WaitGroup
	for db, n := range map[*DB]int{busy: 3, idle: 5} {
		wg.Add(1)
		go func(db *DB, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := db.Query(governQuery); err != nil {
					t.Error(err)
				}
			}
		}(db, n)
	}
	wg.Wait()
	if b, i := busy.Metrics()["queries.gmdj-opt"], idle.Metrics()["queries.gmdj-opt"]; b != 4 || i != 5 {
		t.Errorf("concurrent DBs: queries.gmdj-opt = %d and %d, want 4 and 5", b, i)
	}
}

// TestMetricsOneSource: in a single scrape, every event that also has
// a typed family carries exactly the typed family's value — they read
// the same field.
func TestMetricsOneSource(t *testing.T) {
	db := corpusDB(t)
	runCorpus(t, db)
	got := promSamples(t, db)
	for _, p := range []struct{ event, family string }{
		{"plancache.hit", "gmdj_plan_cache_hits_total"},
		{"plancache.miss", "gmdj_plan_cache_misses_total"},
		{"plancache.eviction", "gmdj_plan_cache_evictions_total"},
		{"plancache.invalidation", "gmdj_plan_cache_invalidations_total"},
		{"mem.admitted", "gmdj_mem_pool_admitted_total"},
		{"mem.admission_timeouts", "gmdj_mem_pool_timed_out_total"},
		{"spill.bytes_written", "gmdj_spill_bytes_written_total"},
		{"spill.bytes_read", "gmdj_spill_bytes_read_total"},
		{"storage.segments_written", "olap_storage_segments_written_total"},
		{"storage.segments_recovered", "olap_storage_segments_recovered_total"},
		{"storage.segments_quarantined", "olap_storage_segments_quarantined_total"},
		{"storage.checkpoints", "olap_storage_checkpoints_total"},
		{"storage.recoveries", "olap_storage_recoveries_total"},
		{"storage.manifests_skipped", "olap_storage_manifests_skipped_total"},
		{"storage.bytes_written", "olap_storage_bytes_written_total"},
		{"storage.bytes_read", "olap_storage_bytes_read_total"},
	} {
		typed, ok := got[p.family]
		if !ok {
			t.Errorf("family %s missing from the scrape", p.family)
			continue
		}
		// A zero counter has no event sample.
		if ev := got["gmdj_engine_events_total{event="+p.event+"}"]; ev != typed {
			t.Errorf("event %s = %v but %s = %v", p.event, ev, p.family, typed)
		}
	}
	for _, must := range []string{"plancache.hit", "mem.admitted", "spill.bytes_written", "storage.checkpoints"} {
		if got["gmdj_engine_events_total{event="+must+"}"] == 0 {
			t.Errorf("corpus never produced %s: the comparison above proved nothing for it", must)
		}
	}
}

// TestMetricsKeySet pins the counter names: after the corpus under a
// spilling limit with a data directory, Metrics holds exactly the keys
// the process-global registry held for the same work (the list below
// was recorded at the commit before the registry went, plus the
// derived table's mem.subquery_overcommit, less the cross-query cache
// of subquery sources, its disk tier and the pool's reclaim valve,
// which are gone; serve.* and
// profile.* belong to the serving layer, see internal/serve's
// TestServeEventLabels).
func TestMetricsKeySet(t *testing.T) {
	db := corpusDB(t)
	runCorpus(t, db)
	want := []string{
		"gmdj.coalesced", "gmdj.completed", "gmdj.detail_rows", "gmdj.extra_detail_scans",
		"gmdj.matches", "gmdj.probes", "gmdj.spill_bytes_written", "gmdj.spill_partitions",
		"mem.admitted", "mem.subquery_overcommit",
		"plancache.hit", "plancache.miss",
		"queries.gmdj", "queries.gmdj-opt", "queries.native", "queries.unnest",
		"rows_scanned",
		"spill.bytes_read", "spill.bytes_written", "spill.reads", "spill.writes",
		"storage.bytes_written", "storage.checkpoints", "storage.opens", "storage.recoveries",
		"storage.segments_written",
	}
	var got []string
	for k := range db.Metrics() {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Metrics key set drifted:\n got %v\nwant %v", got, want)
	}
}

// TestOpenBuildsOnce: GMDJ_MEM plus all three memory options on one
// Open construct one pool and one scratch directory, not one per knob
// — the scratch sequence number advances by exactly one per Open.
func TestOpenBuildsOnce(t *testing.T) {
	root := t.TempDir()
	t.Setenv("GMDJ_MEM", "limit=1MiB,admission=1s")
	scratch := func() string {
		db := Open(WithMemoryLimit(memSpillLimit), WithSpillDir(root), WithAdmissionTimeout(0))
		defer db.Close()
		var dirs []string
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, e.Name())
			}
		}
		if len(dirs) != 1 || filepath.Join(root, dirs[0]) != db.MemStats().SpillDir {
			t.Fatalf("scratch root holds %v, DB spills to %s", dirs, db.MemStats().SpillDir)
		}
		if got := db.MemStats().Capacity; got != memSpillLimit {
			t.Errorf("capacity = %d: the explicit option must beat GMDJ_MEM", got)
		}
		return dirs[0]
	}
	seq := func(name string) int {
		n, err := strconv.Atoi(name[strings.LastIndexByte(name, '-')+1:])
		if err != nil {
			t.Fatalf("scratch directory %q has no sequence suffix", name)
		}
		return n
	}
	first, second := seq(scratch()), seq(scratch())
	if second != first+1 {
		t.Errorf("two Opens advanced the scratch sequence from %d to %d: each must build exactly one store", first, second)
	}
}

// TestEnvDataDirNotLeaked: with GMDJ_DATA_DIR set, an Open that names
// its own data directory must not create (let alone leave behind) an
// env-derived one.
func TestEnvDataDirNotLeaked(t *testing.T) {
	root := t.TempDir()
	t.Setenv("GMDJ_DATA_DIR", root)
	db := Open(WithDataDir(t.TempDir()))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// And a runtime SetDataDir releases the env-derived directory it
	// replaces.
	db = Open()
	defer db.Close()
	if _, err := db.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	db.Close()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("GMDJ_DATA_DIR root holds %d orphaned entries, first %s", len(entries), entries[0].Name())
	}
}
