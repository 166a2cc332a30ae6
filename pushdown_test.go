package gmdj

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/olaplab/gmdj/internal/obs"
)

// eventsDB holds a key-ordered detail table of eight zone-map blocks
// (ev.k ascending, as an append-ordered table's keys are) and the
// sixteen groups its rows fall in.
func eventsDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("grp", Col("g", Int))
	db.MustCreateTable("ev", Col("k", Int), Col("g", Int), Col("v", Int))
	for g := 0; g < 16; g++ {
		db.MustInsert("grp", []any{int64(g)})
	}
	rows := make([][]any, 8*1024)
	for i := range rows {
		rows[i] = []any{int64(i), int64(i * 7 % 16), int64(i * 13 % 100)}
	}
	db.MustInsert("ev", rows...)
	return db
}

const eventsExists = `SELECT b.g FROM grp b WHERE EXISTS (SELECT * FROM ev e WHERE e.g = b.g AND e.k > %s AND e.v > %s)`

func sortedCells(r *Result) []string {
	out := make([]string, r.Len())
	for i, row := range r.Rows {
		out[i] = fmt.Sprint(row...)
	}
	sort.Strings(out)
	return out
}

// TestPushSelectionsPreparedPrunes: the plan of a prepared statement is
// optimized once, with placeholders where the literals will be; the
// range conjunct moves beneath the detail as `e.k > $1` and prunes by
// whatever value each execution binds.
func TestPushSelectionsPreparedPrunes(t *testing.T) {
	db := eventsDB(t)
	stmt, err := db.Prepare(fmt.Sprintf(eventsExists, "?", "?"))
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	for _, c := range []struct {
		above  int64
		pruned int64 // blocks no row of which has k > above
	}{{8*1024 - 10, 7}, {5 * 1024, 5}, {-1, 0}} {
		before := db.Metrics()["storage.segments_pruned"]
		got, err := stmt.Query(c.above, 90)
		if err != nil {
			t.Fatal(err)
		}
		if pruned := db.Metrics()["storage.segments_pruned"] - before; pruned != c.pruned {
			t.Errorf("k > %d: %d blocks pruned, want %d", c.above, pruned, c.pruned)
		}
		want, err := db.QueryStrategy(fmt.Sprintf(eventsExists, fmt.Sprint(c.above), "90"), Native)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedCells(got), sortedCells(want)) {
			t.Errorf("k > %d: prepared gmdj-opt %v, native %v", c.above, sortedCells(got), sortedCells(want))
		}
	}
}

// TestPushSelectionsSeesInsert: a GMDJ query over a detail pruned or
// whole answers as Native does, and a pruned query whose plan is cached
// still sees a row an INSERT adds after it was cached, in a new block;
// so does a Native subquery whose source is a join over the detail.
func TestPushSelectionsSeesInsert(t *testing.T) {
	db := eventsDB(t)
	check := func(q string) {
		t.Helper()
		got, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.QueryStrategy(q, Native)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedCells(got), sortedCells(want)) {
			t.Fatalf("%s:\n gmdj-opt %v\n native   %v", q, sortedCells(got), sortedCells(want))
		}
	}
	pruning, whole := fmt.Sprintf(eventsExists, "8000", "90"), fmt.Sprintf(eventsExists, "-1", "90")
	for _, q := range []string{pruning, whole} {
		check(q)
	}

	// Group 3 gains its only qualifying row in a new ninth block.
	db.MustCreateTable("cut", Col("k", Int))
	db.MustInsert("cut", []any{int64(8191)})
	const src = `SELECT b.g FROM grp b WHERE b.g IN (SELECT e.g FROM ev e, cut c WHERE e.k > c.k)`
	none := fmt.Sprintf(eventsExists, "8191", "90")
	run := func(q string) *Result {
		t.Helper()
		s := GMDJOpt
		if q == src {
			s = Native
		}
		r, err := db.QueryStrategy(q, s)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, q := range []string{none, src} {
		if r := run(q); r.Len() != 0 {
			t.Fatalf("before the insert, %s: %v", q, r.Rows)
		}
	}
	if _, err := db.Exec(`INSERT INTO ev VALUES (8192, 3, 99)`); err != nil {
		t.Fatal(err)
	}
	held := db.PlanCacheStats()
	for _, q := range []string{none, src} {
		if r := run(q); r.Len() != 1 || r.Rows[0][0] != int64(3) {
			t.Fatalf("after the insert, %s: %v, want [[3]]", q, r.Rows)
		}
	}
	if s := db.PlanCacheStats(); s.Hits != held.Hits+2 {
		t.Errorf("after the insert both plans should be served cached: %+v -> %+v", held, s)
	}
	check(none)
	check(whole)
}

// TestPushSelectionsExplainFused pins what EXPLAIN ANALYZE shows for an
// EXISTS over a key-ordered durable table: the range conjunct on a
// selection of its own beneath the GMDJ, marked fused, carrying the
// blocks the zone maps skipped, and the scan beneath it charged with
// the one block handed on.
func TestPushSelectionsExplainFused(t *testing.T) {
	db := eventsDB(t, WithDataDir(t.TempDir()), WithParallelism(1))
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainAnalyze(fmt.Sprintf(eventsExists, "8000", "90"), GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	const golden = `strategy: gmdj-opt (analyzed)
Project [b.g] (time=X act=15 est=4 bytes=840 fused=1)
  Project [b.g] (time=X act=15 est=4 fused=1)
    Select [cnt1 > 0] (time=X act=15 est=4 fused=1)
      GMDJ +completion+freeze (1 conditions) (time=X act=16 est=13 workers=1 detail_rows=1024 probes=15 matches=15 completed=15)
        cond: (count(*) -> cnt1 | θ: e.g = b.g)
        Scan grp->b (time=X act=16 est=16 bytes=896)
        Select [(e.k > 8000 AND e.v > 90)] (time=X rows=1024 bytes=122880 fused=1 segments_pruned=7 segments_total=8)
          Scan ev->e (time=X act=1024 est=8192 bytes=122880)
`
	if got := obs.NormalizeTimings(out); got != golden {
		t.Errorf("EXPLAIN ANALYZE drifted:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}
