package gmdj

import (
	"fmt"
	"sort"
	"strings"
	"testing"
)

// invalidationQueries exercise the plan cache over three shapes: q1 a
// plain selection, q2 a GMDJ over the indexed detail, q3 an
// uncorrelated subquery whose source is a join, not a bare scan.
var invalidationQueries = []string{
	`SELECT name FROM users WHERE score > 15`,
	`SELECT u.name FROM users u WHERE EXISTS (
		SELECT * FROM flows f WHERE f.src = u.ip AND f.bytes > 1000)`,
	`SELECT name FROM users WHERE score > (
		SELECT AVG(f.bytes) FROM flows f, users v WHERE f.src = v.ip AND f.bytes < 50)`,
}

func invalidationDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("users",
		Col("name", String), Col("ip", String), Col("score", Int))
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustInsert("users",
		[]any{"ann", "10.0.0.1", int64(10)},
		[]any{"bob", "10.0.0.2", int64(20)},
		[]any{"cat", "10.0.0.1", int64(30)},
	)
	db.MustInsert("flows",
		[]any{"10.0.0.1", int64(10)},
		[]any{"10.0.0.2", int64(9000)},
	)
	if err := db.BuildHashIndex("flows", "src"); err != nil {
		t.Fatal(err)
	}
	return db
}

func rowsKey(t *testing.T, res *Result) string {
	t.Helper()
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		lines[i] = fmt.Sprint(r...)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCacheInvalidation is the staleness proof for the plan cache:
// after each kind of write to a referenced table, a warmed database
// (its plan cache populated by two prior runs) must answer
// exactly like a cold database built directly in the post-write state.
func TestCacheInvalidation(t *testing.T) {
	mutations := []struct {
		name  string
		apply func(t *testing.T, db *DB)
	}{
		{"insert-api", func(t *testing.T, db *DB) {
			db.MustInsert("flows", []any{"10.0.0.1", int64(5000)})
		}},
		{"insert-sql", func(t *testing.T, db *DB) {
			if _, err := db.Exec(`INSERT INTO flows VALUES ('10.0.0.1', 5000)`); err != nil {
				t.Fatal(err)
			}
		}},
		{"load-csv", func(t *testing.T, db *DB) {
			csv := "src,bytes\n10.0.0.1,5000\n"
			if err := db.LoadCSV("flows", strings.NewReader(csv)); err != nil {
				t.Fatal(err)
			}
		}},
		{"drop-indexes", func(t *testing.T, db *DB) {
			if err := db.DropIndexes("flows"); err != nil {
				t.Fatal(err)
			}
		}},
		{"build-index", func(t *testing.T, db *DB) {
			if err := db.BuildHashIndex("flows", "bytes"); err != nil {
				t.Fatal(err)
			}
		}},
		{"ddl-drop-recreate", func(t *testing.T, db *DB) {
			if _, err := db.Exec(`DROP TABLE flows`); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Exec(`CREATE TABLE flows (src STRING, bytes INT)`); err != nil {
				t.Fatal(err)
			}
			db.MustInsert("flows", []any{"10.0.0.1", int64(5000)})
		}},
	}
	for _, mut := range mutations {
		for _, s := range []Strategy{Native, GMDJOpt} {
			t.Run(mut.name+"/"+s.String(), func(t *testing.T) {
				warm := invalidationDB(t)
				// Warm the cache: two runs so the second is served from
				// the plan cache.
				for i := 0; i < 2; i++ {
					for _, q := range invalidationQueries {
						if _, err := warm.QueryStrategy(q, s); err != nil {
							t.Fatalf("warmup %q: %v", q, err)
						}
					}
				}
				mut.apply(t, warm)

				cold := invalidationDB(t)
				mut.apply(t, cold)

				for _, q := range invalidationQueries {
					got, err := warm.QueryStrategy(q, s)
					if err != nil {
						t.Fatalf("warm %q: %v", q, err)
					}
					want, err := cold.QueryStrategy(q, s)
					if err != nil {
						t.Fatalf("cold %q: %v", q, err)
					}
					if rowsKey(t, got) != rowsKey(t, want) {
						t.Errorf("stale answer after %s for %q:\nwarm: %v\ncold: %v",
							mut.name, q, got.Rows, want.Rows)
					}
				}
			})
		}
	}
}

// TestCacheInvalidationCounters pins the mechanism, not just the
// outcome. An insert moves the table's version, not the schema epoch:
// the compiled plan names tables, not rows, and is served again. An
// index change moves the schema epoch too, and the next lookup of the
// plan records an invalidation.
func TestCacheInvalidationCounters(t *testing.T) {
	db := invalidationDB(t)
	q := invalidationQueries[2]
	for i := 0; i < 2; i++ {
		if _, err := db.QueryStrategy(q, Native); err != nil {
			t.Fatal(err)
		}
	}
	planBefore := db.PlanCacheStats()
	if planBefore.Hits == 0 {
		t.Fatalf("warmup did not hit: %+v", planBefore)
	}
	db.MustInsert("flows", []any{"10.0.0.3", int64(1)})
	if _, err := db.QueryStrategy(q, Native); err != nil {
		t.Fatal(err)
	}
	planAfter := db.PlanCacheStats()
	if planAfter.Hits != planBefore.Hits+1 || planAfter.Invalidations != planBefore.Invalidations {
		t.Errorf("an insert should leave the plan cached: %+v -> %+v", planBefore, planAfter)
	}
	if err := db.BuildHashIndex("flows", "bytes"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryStrategy(q, Native); err != nil {
		t.Fatal(err)
	}
	if got := db.PlanCacheStats(); got.Invalidations != planAfter.Invalidations+1 {
		t.Errorf("plan invalidations after an index change %d -> %d, want +1", planAfter.Invalidations, got.Invalidations)
	}
}
