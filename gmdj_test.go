package gmdj

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func flowDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("flows",
		Col("src", String), Col("dst", String), Col("start", Int),
		Col("proto", String), Col("bytes", Int))
	db.MustInsert("flows",
		[]any{"10.0.0.1", "167.167.167.0", 43, "HTTP", 12},
		[]any{"10.0.0.2", "168.168.168.0", 86, "HTTP", 36},
		[]any{"10.0.0.1", "10.0.0.2", 99, "FTP", 48},
		[]any{"10.0.0.3", "168.168.168.0", 132, "HTTP", 24},
		[]any{"10.0.0.2", "10.0.0.1", 156, "HTTP", 24},
		[]any{"10.0.0.3", "169.169.169.0", 161, "FTP", 48},
	)
	db.MustCreateTable("hours",
		Col("hr", Int), Col("lo", Int), Col("hi", Int))
	db.MustInsert("hours",
		[]any{1, 0, 60}, []any{2, 61, 120}, []any{3, 121, 180})
	return db
}

// TestCreateTableValidation: CreateTable and SQL CREATE TABLE share
// one validation, so a definition either door can express is accepted
// or rejected by both, with the same error.
func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt, Auto} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, bad := range []string{"", "quantum", "GMDJ-OPT", "opt", " auto"} {
		if _, err := ParseStrategy(bad); err == nil || err.Error() != fmt.Sprintf("unknown strategy %q", bad) {
			t.Errorf("ParseStrategy(%q) err = %v, want unknown strategy", bad, err)
		}
	}
}

func TestCreateTableValidation(t *testing.T) {
	cases := []struct {
		what string
		name string
		cols []Column
		sql  string // "" when SQL cannot express the definition
		ok   bool
	}{
		{"empty name", "", []Column{Col("a", Int)}, "", false},
		{"no columns", "t", nil, "", false},
		{"unnamed column", "t", []Column{Col("", Int)}, "", false},
		{"duplicate column", "dup", []Column{Col("a", Int), Col("a", Int)}, `CREATE TABLE dup (a INT, a INT)`, false},
		{"valid", "t", []Column{Col("a", Int), Col("b", String)}, `CREATE TABLE t (a INT, b STRING)`, true},
	}
	for _, c := range cases {
		api, viaSQL := Open(), Open()
		defer api.Close()
		defer viaSQL.Close()
		check := func(db *DB, door string, create func() error) error {
			err := create()
			if (err == nil) != c.ok {
				t.Errorf("%s through %s: err = %v, want ok = %v", c.what, door, err, c.ok)
			}
			// Either way the name is taken or it is not: a second create of
			// an accepted definition is the one ErrTableExists case.
			if err := create(); c.ok && !errors.Is(err, ErrTableExists) {
				t.Errorf("%s through %s, twice: err = %v, want ErrTableExists", c.what, door, err)
			}
			if got := len(db.Tables()) == 1; got != c.ok {
				t.Errorf("%s through %s: tables = %v", c.what, door, db.Tables())
			}
			return err
		}
		errAPI := check(api, "CreateTable", func() error { return api.CreateTable(c.name, c.cols...) })
		if c.sql == "" {
			continue
		}
		errSQL := check(viaSQL, "CREATE TABLE", func() error { _, err := viaSQL.Exec(c.sql); return err })
		if errAPI != nil && errSQL != nil && errAPI.Error() != errSQL.Error() {
			t.Errorf("%s: CreateTable says %q, CREATE TABLE says %q", c.what, errAPI, errSQL)
		}
	}
}

func TestInsertValidation(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("a", Int), Col("b", String))
	if err := db.Insert("missing", []any{1, "x"}); err == nil {
		t.Error("unknown table must fail")
	}
	if err := db.Insert("t", []any{1}); err == nil {
		t.Error("short row must fail")
	}
	if err := db.Insert("t", []any{"oops", "x"}); err == nil {
		t.Error("type mismatch must fail")
	}
	if err := db.Insert("t", []any{1, []byte("nope")}); err == nil {
		t.Error("unsupported Go type must fail")
	}
	if err := db.Insert("t", []any{nil, nil}); err != nil {
		t.Errorf("NULLs must be accepted: %v", err)
	}
	if err := db.Insert("t", []any{int64(5), "ok"}); err != nil {
		t.Errorf("int64 must be accepted: %v", err)
	}
}

func TestInsertIntIntoFloatWidens(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("f", Float))
	db.MustInsert("t", []any{3})
	res, err := db.Query("SELECT f FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := res.Rows[0][0].(float64); !ok || got != 3.0 {
		t.Errorf("got %v (%T)", res.Rows[0][0], res.Rows[0][0])
	}
}

func TestBasicQuery(t *testing.T) {
	db := flowDB(t)
	res, err := db.Query("SELECT src, bytes FROM flows WHERE proto = 'FTP'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || len(res.Columns) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.Columns[0] != "src" || res.Columns[1] != "bytes" {
		t.Errorf("columns = %v", res.Columns)
	}
}

// TestQueryAllStrategiesAgree: every strategy returns the same rows, at
// degree 1 and 4. Q1–Q7 are non-neighboring correlations (Thms 3.3/3.4)
// over outer blocks with duplicate rows and NULLs; want is Native's
// answer, checked by hand.
func TestQueryAllStrategiesAgree(t *testing.T) {
	const abc = "SELECT a.x, a.y FROM A a WHERE "
	cases := []struct {
		name, query, want string
	}{
		{"ftp hours", `SELECT h.hr FROM hours h WHERE EXISTS (
	        SELECT * FROM flows f
	        WHERE f.start >= h.lo AND f.start < h.hi AND f.proto = 'FTP')`, "[2];[3]"},
		{"Q1 count over duplicate outer rows", abc + "1 = (SELECT COUNT(*) FROM B b WHERE b.k = a.x AND EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v = a.y))", "[1 1];[1 1];[4 2]"},
		{"Q2 NULL in an unread column", abc + "EXISTS (SELECT * FROM B b WHERE b.k = a.x AND EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v > a.x))", "[2 5];[2 5];[3 <nil>]"},
		{"Q3 negated Q2", abc + "NOT EXISTS (SELECT * FROM B b WHERE b.k = a.x AND EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v > a.x))", "[1 1];[1 1];[4 2]"},
		{"Q4 left operand", abc + "EXISTS (SELECT * FROM B b WHERE b.k = a.x AND a.y IN (SELECT c.v FROM C c WHERE c.k = b.k))", "[1 1];[1 1];[2 5];[2 5];[4 2]"},
		{"Q5 aggregate argument", abc + "EXISTS (SELECT * FROM B b WHERE b.k = a.x AND b.v < (SELECT MAX(c.v + a.y) FROM C c WHERE c.k = b.k))", "[1 1];[1 1];[2 5];[2 5]"},
		{"Q6 aggregate reads the base", abc + "a.y < (SELECT SUM(b.v + a.x) FROM B b WHERE b.k = a.x)", "[1 1];[1 1];[2 5];[2 5]"},
		{"Q7 division", abc + "NOT EXISTS (SELECT * FROM B b WHERE NOT EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v >= a.x))", "[1 1];[1 1]"},
		{"Q8 push a block that holds a copy", abc + "EXISTS (SELECT * FROM B b WHERE b.k = a.x AND EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v = a.y) AND EXISTS (SELECT * FROM C c2 WHERE c2.k = b.k AND EXISTS (SELECT * FROM C d WHERE d.k = c2.k AND d.v = b.v)))", "[1 1];[1 1]"},
		{"Q9 pushed block shares column names", "SELECT e.k, e.v FROM C e WHERE EXISTS (SELECT * FROM B b WHERE b.k = e.k AND EXISTS (SELECT * FROM C c WHERE c.k = b.k AND c.v = e.v) AND EXISTS (SELECT * FROM C c2 WHERE c2.k = b.k AND EXISTS (SELECT * FROM C d WHERE d.k = c2.k AND d.v = b.v)))", "[1 1]"},
		{"Q10 block over two tables that share column names", abc + "EXISTS (SELECT * FROM B b, C e WHERE b.k = a.x AND e.k = b.k AND EXISTS (SELECT * FROM C c WHERE c.k = e.k AND EXISTS (SELECT * FROM C d WHERE d.k = c.k AND d.v = b.v AND e.v = a.y)))", "[1 1];[1 1]"},
	}
	for _, degree := range []int{1, 4} {
		db := flowDB(t, WithParallelism(degree))
		for _, tbl := range []struct {
			name string
			rows [][]any
		}{
			{"A", [][]any{{1, 1}, {1, 1}, {2, 5}, {2, 5}, {3, nil}, {4, 2}}},
			{"B", [][]any{{1, 1}, {2, 3}, {2, 7}, {3, 9}, {4, nil}}},
			{"C", [][]any{{1, 1}, {2, 5}, {2, nil}, {3, 8}, {4, 2}}},
		} {
			cols := []string{"x", "y"}
			if tbl.name != "A" {
				cols = []string{"k", "v"}
			}
			db.MustCreateTable(tbl.name, Col(cols[0], Int), Col(cols[1], Int))
			db.MustInsert(tbl.name, tbl.rows...)
		}
		for _, c := range cases {
			for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
				res, err := db.QueryStrategy(c.query, s)
				if err != nil {
					t.Errorf("%s, degree %d, %v: %v", c.name, degree, s, err)
					continue
				}
				keys := make([]string, len(res.Rows))
				for i, row := range res.Rows {
					keys[i] = fmt.Sprint(row)
				}
				sort.Strings(keys)
				if got := strings.Join(keys, ";"); got != c.want {
					t.Errorf("%s, degree %d, %v: rows %s, want %s", c.name, degree, s, got, c.want)
				}
			}
		}
	}
}

func TestGroupByThroughFacade(t *testing.T) {
	db := flowDB(t)
	res, err := db.Query("SELECT proto, COUNT(*) AS n, SUM(bytes) AS b FROM flows GROUP BY proto")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][2]int64{}
	for _, row := range res.Rows {
		got[row[0].(string)] = [2]int64{row[1].(int64), row[2].(int64)}
	}
	if got["HTTP"] != [2]int64{4, 96} || got["FTP"] != [2]int64{2, 96} {
		t.Errorf("groups = %v", got)
	}
}

func TestExplainShowsGMDJ(t *testing.T) {
	db := flowDB(t)
	q := `SELECT h.hr FROM hours h WHERE EXISTS (
	        SELECT * FROM flows f WHERE f.start >= h.lo AND f.start < h.hi)`
	plan, err := db.Explain(q, GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "GMDJ") {
		t.Errorf("GMDJOpt explain lacks a GMDJ node:\n%s", plan)
	}
	nativePlan, err := db.Explain(q, Native)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(nativePlan, "GMDJ") {
		t.Errorf("native explain should not contain GMDJ:\n%s", nativePlan)
	}
}

func TestNullRoundTrip(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("a", Int))
	db.MustInsert("t", []any{nil}, []any{7})
	res, err := db.Query("SELECT a FROM t WHERE a IS NULL")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != nil {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestCSVThroughFacade(t *testing.T) {
	db := flowDB(t)
	var buf bytes.Buffer
	if err := db.DumpCSV("flows", &buf); err != nil {
		t.Fatal(err)
	}
	db2 := Open()
	defer db2.Close()
	db2.MustCreateTable("flows",
		Col("src", String), Col("dst", String), Col("start", Int),
		Col("proto", String), Col("bytes", Int))
	if err := db2.LoadCSV("flows", &buf); err != nil {
		t.Fatal(err)
	}
	res, err := db2.Query("SELECT COUNT(*) AS n FROM flows")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 6 {
		t.Errorf("loaded rows = %v", res.Rows[0][0])
	}
	if err := db2.DumpCSV("missing", &buf); err == nil {
		t.Error("dumping unknown table must fail")
	}
	if err := db2.LoadCSV("missing", &buf); err == nil {
		t.Error("loading unknown table must fail")
	}
}

func TestIndexManagementThroughFacade(t *testing.T) {
	db := flowDB(t)
	if err := db.BuildHashIndex("flows", "src"); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildSortedIndex("flows", "start"); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildHashIndex("flows", "nope"); err == nil {
		t.Error("indexing unknown column must fail")
	}
	if err := db.DropIndexes("flows"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndexes("missing"); err == nil {
		t.Error("dropping on unknown table must fail")
	}
}

// TestInsertAfterIndexBuild: rows inserted after an index was built
// must be visible through it. Native answers correlated subqueries
// from the secondary indexes, so a stale index shows as Native
// disagreeing with GMDJOpt on rows only the new tuples satisfy — for
// the hash access path (equality) and the sorted one (range) alike.
func TestInsertAfterIndexBuild(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("customers", Col("k", Int))
	db.MustCreateTable("orders", Col("custkey", Int), Col("price", Int))
	db.MustInsert("customers", []any{1}, []any{2}, []any{3}, []any{4})
	db.MustInsert("orders", []any{1, 10}, []any{2, 20})
	if err := db.BuildHashIndex("orders", "custkey"); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildSortedIndex("orders", "price"); err != nil {
		t.Fatal(err)
	}
	db.MustInsert("orders", []any{3, 500})
	if _, err := db.Exec(`INSERT INTO orders VALUES (4, 600)`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`SELECT c.k FROM customers c WHERE EXISTS (SELECT * FROM orders o WHERE o.custkey = c.k)`,
		`SELECT c.k FROM customers c WHERE EXISTS (SELECT * FROM orders o WHERE o.price > c.k * 100)`,
	} {
		want, err := db.QueryStrategy(q, GMDJOpt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.QueryStrategy(q, Native)
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() != 4 || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s:\nnative  %v\ngmdjopt %v (want all 4 customers)", q, got.Rows, want.Rows)
		}
	}
}

func TestTables(t *testing.T) {
	db := flowDB(t)
	names := db.Tables()
	if len(names) != 2 || names[0] != "flows" || names[1] != "hours" {
		t.Errorf("Tables = %v", names)
	}
}

func TestSamples(t *testing.T) {
	nf := OpenNetflowSample(1000)
	defer nf.Close()
	res, err := nf.Query("SELECT COUNT(*) AS n FROM Flow")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 1000 {
		t.Errorf("netflow rows = %v", res.Rows[0][0])
	}
	tp := OpenTPCRSample(0.1)
	defer tp.Close()
	res, err = tp.Query("SELECT COUNT(*) AS n FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 100 {
		t.Errorf("customers = %v", res.Rows[0][0])
	}
}

func TestSubqueryThroughFacadeMatchesPaperSemantics(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("l", Col("n", Int))
	db.MustCreateTable("r", Col("n", Int))
	db.MustInsert("l", []any{1}, []any{2}, []any{3}, []any{nil})
	db.MustInsert("r", []any{2}, []any{nil})
	res, err := db.Query("SELECT n FROM l WHERE n NOT IN (SELECT n FROM r)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("NOT IN over NULL set = %d rows, want 0", res.Len())
	}
}

// TestFig4NullsMatchNative: Fig 4's statements, and NOT IN, over a
// subquery that holds a NULL for all but one outer row and over one that
// holds none, with NULL a_val cells, return Native's rows under every
// strategy and degree: the GMDJ's probe reads the base's typed columns
// and drops a decided tuple from its bucket.
func TestFig4NullsMatchNative(t *testing.T) {
	queries := []string{
		"SELECT a.a_key FROM A a WHERE a.a_val <> ALL (SELECT b.b_val FROM %s b WHERE b.b_key <> a.a_key)",
		"SELECT a.a_key FROM A a WHERE a.a_val > ALL (SELECT b.b_val FROM %s b WHERE b.b_key <> a.a_key)",
		"SELECT a.a_key FROM A a WHERE a.a_val NOT IN (SELECT b.b_val FROM %s b WHERE b.b_key <> a.a_key)",
		"SELECT a.a_key FROM A a WHERE a.a_val NOT IN (SELECT b.b_val FROM %s b)",
	}
	var a, b [][]any
	for i := 0; i < 300; i++ {
		if a = append(a, []any{i, i % 50}); i%37 == 0 {
			a[i][1] = nil
		}
		b = append(b, []any{i * 7 % 300, i % 40}) // no b_val above 39
	}
	rows := func(res *Result) string {
		keys := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			keys[i] = fmt.Sprint(row)
		}
		sort.Strings(keys)
		return strings.Join(keys, ";")
	}
	for _, degree := range []int{1, 2, 4} {
		db := Open(WithParallelism(degree))
		defer db.Close()
		for _, tbl := range []string{"A", "B", "Bn"} {
			cols := []Column{Col("b_key", Int), Col("b_val", Int)}
			if tbl == "A" {
				cols = []Column{Col("a_key", Int), Col("a_val", Int)}
			}
			db.MustCreateTable(tbl, cols...)
		}
		db.MustInsert("A", a...)
		db.MustInsert("B", b...)
		db.MustInsert("Bn", append(b, []any{7, nil})...) // a NULL every outer row but a_key 7 sees
		for _, q := range queries {
			for _, tbl := range []string{"B", "Bn"} {
				sql := fmt.Sprintf(q, tbl)
				want, err := db.QueryStrategy(sql, Native)
				if err != nil {
					t.Fatal(err)
				}
				if tbl == "B" && q == queries[0] && want.Len() == 0 {
					t.Fatalf("%s: no rows; the case decides nothing", sql)
				}
				for _, s := range allStrategies[1:] {
					if got, err := db.QueryStrategy(sql, s); err != nil || rows(got) != rows(want) {
						t.Errorf("degree %d, %v: %s: %v rows %s, want %s", degree, s, sql, err, rows(got), rows(want))
					}
				}
			}
		}
	}
}

func TestParallelQueryEquivalence(t *testing.T) {
	q := `SELECT h.HourDsc FROM Hours h WHERE EXISTS (
	        SELECT * FROM Flow f
	        WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
	          AND f.Protocol = 'FTP')`
	db := OpenNetflowSample(20_000, WithParallelism(1))
	defer db.Close()
	serial, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	pdb := OpenNetflowSample(20_000, WithParallelism(4))
	defer pdb.Close()
	par, err := pdb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Len() != par.Len() {
		t.Errorf("parallel rows %d != serial rows %d", par.Len(), serial.Len())
	}
}

func TestSaveDirOpenDir(t *testing.T) {
	dir := t.TempDir()
	db := flowDB(t)
	if err := db.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	res, err := back.Query("SELECT COUNT(*) AS n FROM flows WHERE proto = 'FTP'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Errorf("restored DB query = %v", res.Rows[0][0])
	}
	if _, err := OpenDir("/nope/missing"); err == nil {
		t.Error("missing dir must error")
	}
}
