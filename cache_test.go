package gmdj

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPlanCacheHitMiss(t *testing.T) {
	db := usersDB(t)
	q := `SELECT name FROM users WHERE score > 15`
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	s1 := db.PlanCacheStats()
	if s1.Misses == 0 || s1.Entries == 0 {
		t.Fatalf("first query should miss and populate: %+v", s1)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	s2 := db.PlanCacheStats()
	if s2.Hits != s1.Hits+1 {
		t.Fatalf("second query should hit: before %+v after %+v", s1, s2)
	}
	// Same shape, different constant: the parameterized template is
	// shared, so this is a hit too — and returns the right rows.
	res, err := db.Query(`SELECT name FROM users WHERE score > 25`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "cat" {
		t.Fatalf("got %v, want [[cat]]", res.Rows)
	}
	s3 := db.PlanCacheStats()
	if s3.Hits != s2.Hits+1 {
		t.Fatalf("constant-only variant should share the template: %+v -> %+v", s2, s3)
	}
}

// planSpans returns the cache= labels of the "plan" spans recorded so
// far, oldest first.
func planSpans(t *testing.T, db *DB) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Cat  string            `json:"cat"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range trace.TraceEvents {
		if e.Cat == "plan" {
			out = append(out, e.Args["detail"])
		}
	}
	return out
}

// TestOneCompilePath: every door that takes SQL text goes through
// compile, so whichever door sees a normalized text first pays the one
// miss and every door after it hits — in the counters, in the one
// "plan" span each statement records, and in Explain's "plan: cached"
// line.
func TestOneCompilePath(t *testing.T) {
	doors := []struct {
		name string
		run  func(db *DB, q string) error
	}{
		{"Query", func(db *DB, q string) error { _, err := db.Query(q); return err }},
		{"QueryRows", func(db *DB, q string) error {
			rows, err := db.QueryRows(q)
			if err != nil {
				return err
			}
			for rows.Next() {
			}
			rows.Close()
			return rows.Err()
		}},
		{"Exec", func(db *DB, q string) error { _, err := db.Exec(q); return err }},
		{"Prepare", func(db *DB, q string) error {
			st, err := db.Prepare(q)
			if err != nil {
				return err
			}
			defer st.Close()
			for i := 0; i < 2; i++ { // the statement holds the template: no second lookup
				if _, err := st.Query(); err != nil {
					return err
				}
			}
			return nil
		}},
		{"Explain", func(db *DB, q string) error { _, err := db.Explain(q, GMDJOpt); return err }},
		{"ExplainAnalyze", func(db *DB, q string) error { _, err := db.ExplainAnalyze(q, GMDJOpt); return err }},
		{"QueryAnalyze", func(db *DB, q string) error { _, _, err := db.QueryAnalyze(q, GMDJOpt); return err }},
	}
	for _, first := range doors {
		for _, second := range doors {
			db := usersDB(t)
			db.EnableTracing(64)
			if err := first.run(db, `SELECT name FROM users WHERE score > 15`); err != nil {
				t.Fatalf("%s: %v", first.name, err)
			}
			if s := db.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 {
				t.Errorf("%s first: %d misses, %d hits, want 1, 0", first.name, s.Misses, s.Hits)
			}
			// The same normalized text: another constant, case and spacing.
			if err := second.run(db, "select name  from users\nwhere score > 99"); err != nil {
				t.Fatalf("%s: %v", second.name, err)
			}
			if s := db.PlanCacheStats(); s.Misses != 1 || s.Hits != 1 {
				t.Errorf("%s after %s: %d misses, %d hits, want 1, 1", second.name, first.name, s.Misses, s.Hits)
			}
			out, err := db.Explain(`SELECT name FROM users WHERE score > 0`, GMDJOpt)
			if err != nil || !strings.HasPrefix(out, "plan: cached\n") {
				t.Errorf("Explain after %s, %s: %v\n%s", first.name, second.name, err, out)
			}
			want := []string{"cache=miss", "cache=hit", "cache=hit"}
			if got := planSpans(t, db); !slices.Equal(got, want) {
				t.Errorf("%s then %s then Explain: plan spans %v, want %v", first.name, second.name, got, want)
			}
		}
	}
}

// TestCompileErrorsNameTheCallersText: the template is compiled from
// the normalized text, but a syntax error is positioned in the text
// the caller wrote, through every door, cache warm or cold.
func TestCompileErrorsNameTheCallersText(t *testing.T) {
	db := usersDB(t)
	const bad = "SELECT name\n\n  FROM users WHERE score > 15 AND AND"
	_, want := db.Query(bad)
	if at := fmt.Sprintf("offset %d)", strings.LastIndex(bad, "AND")); want == nil || !strings.Contains(want.Error(), at) {
		t.Fatalf("err = %v, want the second AND's %s in the original text", want, at)
	}
	_, errPrepare := db.Prepare(bad)
	_, errExplain := db.Explain(bad, GMDJOpt)
	_, errAnalyze := db.ExplainAnalyze(bad, GMDJOpt)
	for door, err := range map[string]error{"Prepare": errPrepare, "Explain": errExplain, "ExplainAnalyze": errAnalyze} {
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want %v", door, err, want)
		}
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	db := Open(WithPlanCache(-1))
	defer db.Close()
	db.MustCreateTable("t", Col("x", Int))
	db.MustInsert("t", []any{int64(1)})
	if _, err := db.Query(`SELECT x FROM t`); err != nil {
		t.Fatal(err)
	}
	if s := db.PlanCacheStats(); s.Hits+s.Misses != 0 {
		t.Fatalf("disabled cache saw traffic: %+v", s)
	}
}

func TestExplainPlanCachedLine(t *testing.T) {
	db := usersDB(t)
	q := `SELECT name FROM users WHERE score > 15`
	out, err := db.Explain(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "plan: cached") {
		t.Fatalf("cold explain claims cached:\n%s", out)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	// Any constant-compatible variant of the text now reports cached.
	out, err = db.Explain(`SELECT name FROM users WHERE score > 99`, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan: cached") {
		t.Fatalf("warm explain lacks plan: cached line:\n%s", out)
	}
}

func TestOpenOptions(t *testing.T) {
	db := Open(
		WithParallelism(2),
		WithBudget(Budget{Timeout: time.Minute}),
		WithUseIndexes(false),
		WithMemoizeSubqueries(true),
	)
	defer db.Close()
	db.MustCreateTable("t", Col("x", Int))
	db.MustCreateTable("u", Col("y", Int))
	db.MustInsert("t", []any{int64(7)})
	db.MustInsert("u", []any{int64(7)})
	res, err := db.Query(`SELECT x FROM t WHERE x IN (SELECT y FROM u)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("got %d rows", res.Len())
	}
}

// TestSubquerySourceCharged: under a memory limit, a Native subquery
// source that is more than a bare scan (here a join, 3 600 rows) is
// charged to the query's subquery tracker. It outgrows the 32 KiB pool,
// so the charge overcommits, the query still answers, and the pool is
// empty once it has.
func TestSubquerySourceCharged(t *testing.T) {
	hermeticEnv(t)
	db := Open(WithMemoryLimit(32<<10), WithSpillDir(t.TempDir()))
	defer db.Close()
	db.MustCreateTable("t", Col("x", Int))
	db.MustCreateTable("u", Col("y", Int))
	db.MustCreateTable("v", Col("z", Int))
	var rows [][]any
	for i := 0; i < 60; i++ {
		rows = append(rows, []any{int64(i)})
	}
	db.MustInsert("t", rows...)
	db.MustInsert("u", rows...)
	db.MustInsert("v", rows...)
	res, err := db.QueryStrategy(`SELECT x FROM t WHERE x IN (SELECT u.y FROM u, v)`, Native)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 60 {
		t.Fatalf("%d rows, want 60", res.Len())
	}
	if got := db.Metrics()["mem.subquery_overcommit"]; got != 1 {
		t.Errorf("mem.subquery_overcommit = %d, want 1", got)
	}
	if ms := db.MemStats(); ms.InUse != 0 {
		t.Errorf("pool in use = %d after the query, want 0", ms.InUse)
	}
}

// TestSubquerySourceReplay: an uncorrelated subquery whose source is
// more than a bare scan (here a join) answers alike on replay, and a
// replay after an INSERT sees the new row.
func TestSubquerySourceReplay(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustCreateTable("users", Col("name", String), Col("ip", String))
	db.MustInsert("users", []any{"ann", "10.0.0.1"}, []any{"bob", "10.0.0.2"})
	db.MustInsert("flows", []any{"10.0.0.1", int64(100)}, []any{"10.0.0.2", int64(9000)})
	q := `SELECT u.name FROM users u WHERE u.ip IN (
		SELECT f.src FROM flows f, users v WHERE f.src = v.ip AND f.bytes > 1000)`
	names := func() []string {
		t.Helper()
		res, err := db.QueryStrategy(q, Native)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range res.Rows {
			out = append(out, r[0].(string))
		}
		slices.Sort(out)
		return out
	}
	for run := 0; run < 2; run++ {
		if got := names(); !slices.Equal(got, []string{"bob"}) {
			t.Fatalf("run %d: %v, want [bob]", run, got)
		}
	}
	db.MustInsert("flows", []any{"10.0.0.1", int64(5000)})
	if got := names(); !slices.Equal(got, []string{"ann", "bob"}) {
		t.Fatalf("after the INSERT: %v, want [ann bob]", got)
	}
}

// spillUsersFlows opens a DB holding users × flows for an EXISTS whose
// GMDJ probes flows by ip: every user owns two flows, one of them large.
// hosts is a two-row table for a subquery source beyond a bare scan.
func spillUsersFlows(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("users", Col("name", String), Col("ip", String))
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustCreateTable("hosts", Col("ip", String))
	users := make([][]any, 0, 4000)
	flows := make([][]any, 0, 8000)
	for i := 0; i < 4000; i++ {
		ip := fmt.Sprintf("10.0.%d.%d", i/256, i%256)
		users = append(users, []any{fmt.Sprintf("u%d", i), ip})
		flows = append(flows, []any{ip, int64(i % 2000)}, []any{ip, int64(100)})
	}
	db.MustInsert("users", users...)
	db.MustInsert("flows", flows...)
	db.MustInsert("hosts", []any{"10.0.0.1"}, []any{"10.0.0.7"})
	return db
}

// analyzedCounter returns the first value of counter in an EXPLAIN
// ANALYZE tree (0 when absent: a zero counter is not printed).
func analyzedCounter(plan, counter string) int {
	m := regexp.MustCompile(`\b` + counter + `=(\d+)`).FindStringSubmatch(plan)
	if m == nil {
		return 0
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// timing matches an EXPLAIN ANALYZE node's wall time, the one figure of
// the tree that differs between two runs of a query.
var timing = regexp.MustCompile(` ?time=\S+`)

// TestSpillingGMDJRepeatable: a GMDJ that spills under a tight pool
// spills as many partitions on every run, with EXPLAIN ANALYZE trees
// equal but for timings and the same answer; a Native subquery source
// over a join still answers after, and nothing is left in the pool or
// the scratch directory.
func TestSpillingGMDJRepeatable(t *testing.T) {
	hermeticEnv(t)
	const q = `SELECT u.name FROM users u WHERE EXISTS (
		SELECT * FROM flows f WHERE f.src = u.ip AND f.bytes > 1000)`
	const src = `SELECT u.name FROM users u WHERE u.ip IN (SELECT h.ip FROM hosts h, hosts g WHERE h.ip = g.ip)`
	db := spillUsersFlows(t, WithMemoryLimit(32<<10), WithSpillDir(t.TempDir()), WithParallelism(1))
	first, want, err := db.QueryAnalyze(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	wantParts := analyzedCounter(want, "spill_partitions")
	if wantParts <= 0 {
		t.Fatalf("the query does not spill, so it tests nothing:\n%s", want)
	}
	for run := 1; run < 4; run++ {
		res, got, err := db.QueryAnalyze(q, GMDJOpt)
		if err != nil {
			t.Fatal(err)
		}
		if parts := analyzedCounter(got, "spill_partitions"); parts != wantParts {
			t.Errorf("run %d: spill_partitions=%d, want %d as on the first run", run, parts, wantParts)
		}
		if timing.ReplaceAllString(got, "") != timing.ReplaceAllString(want, "") {
			t.Errorf("run %d:\n%s\nfirst run:\n%s", run, got, want)
		}
		if res.Len() != first.Len() {
			t.Errorf("run %d: %d rows, first run %d", run, res.Len(), first.Len())
		}
	}
	res, err := db.QueryStrategy(src, Native)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("after the spilling runs: %v, want the two hosts' users", res.Rows)
	}
	if ms := db.MemStats(); ms.SpillLiveFiles != 0 || ms.InUse != 0 {
		t.Errorf("%d spill files and %d pool bytes left", ms.SpillLiveFiles, ms.InUse)
	}
}

// TestSubquerySourceLeavesNoFiles: a Native subquery source beyond a
// bare scan, re-materialized after every write under a limit and a
// spill dir, sees each round's rows and leaves no scratch file and no
// pool bytes behind.
func TestSubquerySourceLeavesNoFiles(t *testing.T) {
	hermeticEnv(t)
	db := Open(WithMemoryLimit(64<<20), WithSpillDir(t.TempDir()))
	defer db.Close()
	db.MustCreateTable("t", Col("x", Int))
	db.MustCreateTable("u", Col("y", Int))
	db.MustCreateTable("v", Col("z", Int))
	var rows [][]any
	for i := 0; i < 60; i++ {
		rows = append(rows, []any{int64(i)})
	}
	db.MustInsert("t", rows...)
	db.MustInsert("u", rows...)
	db.MustInsert("v", rows...)
	for round := 0; round < 20; round++ {
		row := []any{int64(100 + round)}
		db.MustInsert("t", row)
		db.MustInsert("u", row)
		db.MustInsert("v", row)
		res, err := db.QueryStrategy(`SELECT x FROM t WHERE x IN (SELECT u.y FROM u, v WHERE u.y = v.z)`, Native)
		if err != nil {
			t.Fatal(err)
		}
		if want := 61 + round; res.Len() != want {
			t.Fatalf("round %d: %d rows, want %d", round, res.Len(), want)
		}
	}
	if ms := db.MemStats(); ms.SpillLiveFiles != 0 || ms.InUse != 0 {
		t.Errorf("%d scratch files and %d pool bytes left behind", ms.SpillLiveFiles, ms.InUse)
	}
}
