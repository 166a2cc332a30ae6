package gmdj

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func TestExecCreateInsertSelect(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b TEXT, c FLOAT, d BOOL)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'x', 2.5, TRUE), (-2, 'y', 3, FALSE), (NULL, NULL, NULL, NULL)`); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec(`SELECT a, b FROM t WHERE a IS NOT NULL ORDER BY a`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 || res.Rows[0][0].(int64) != -2 || res.Rows[1][1].(string) != "x" {
		t.Errorf("rows = %v", res.Rows)
	}
	// INT literal widened into FLOAT column.
	res, _ = db.Exec(`SELECT c FROM t WHERE b = 'y'`)
	if res.Rows[0][0].(float64) != 3.0 {
		t.Errorf("widened float = %v", res.Rows[0][0])
	}
}

func TestExecCreateValidation(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err == nil {
		t.Error("duplicate table must fail")
	}
	if _, err := db.Exec(`CREATE TABLE u (a BLOB)`); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := db.Exec(`CREATE TABLE`); err == nil {
		t.Error("truncated CREATE must fail")
	}
}

func TestExecInsertAtomicity(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("a", Int))
	// Second row has a type error; the first must not be applied.
	if _, err := db.Exec(`INSERT INTO t VALUES (1), ('oops')`); err == nil {
		t.Fatal("type error must fail the insert")
	}
	res, _ := db.Exec(`SELECT COUNT(*) AS n FROM t`)
	if res.Rows[0][0].(int64) != 0 {
		t.Errorf("failed INSERT must be atomic, found %v rows", res.Rows[0][0])
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 2)`); err == nil {
		t.Error("width mismatch must fail")
	}
	if _, err := db.Exec(`INSERT INTO missing VALUES (1)`); err == nil {
		t.Error("unknown table must fail")
	}
}

// TestFailedInsertIsAtomic: a multi-row write whose second row is
// rejected leaves the table as it was, through every door that writes
// (all three end in storage.Table.Append). A half-applied batch with no
// version bump showed in two ways: native, probing a hash index that
// lags the rows, disagreed with the three strategies that scan, and a
// durable DB served the stray row until Close and lost it on reopen.
func TestFailedInsertIsAtomic(t *testing.T) {
	doors := []struct {
		name  string
		write func(db *DB) error
	}{
		{"Insert", func(db *DB) error { return db.Insert("i", []any{2}, []any{"bad"}) }},
		{"INSERT", func(db *DB) error {
			_, err := db.Exec(`INSERT INTO i VALUES (2), ('bad')`)
			return err
		}},
		{"LoadCSV", func(db *DB) error { return db.LoadCSV("i", strings.NewReader("k\n2\nbad\n")) }},
	}
	const q = `SELECT o.k FROM o WHERE EXISTS (SELECT * FROM i WHERE i.k = o.k)`
	for _, door := range doors {
		t.Run(door.name, func(t *testing.T) {
			dir := t.TempDir()
			db := Open(WithDataDir(dir))
			db.MustCreateTable("o", Col("k", Int))
			db.MustCreateTable("i", Col("k", Int))
			db.MustInsert("o", []any{1}, []any{2})
			db.MustInsert("i", []any{1})
			if err := db.BuildHashIndex("i", "k"); err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.cat.Table("i")
			version := tbl.Version()
			if err := door.write(db); err == nil {
				t.Fatal("a row of the wrong type must fail the write")
			}
			if tbl.Rel.Len() != 1 || tbl.Version() != version {
				t.Errorf("failed write left %d rows at version %d, want 1 at %d", tbl.Rel.Len(), tbl.Version(), version)
			}
			for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
				res, err := db.QueryStrategy(q, s)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if res.Len() != 1 {
					t.Errorf("%v: %d rows %v, want 1", s, res.Len(), res.Rows)
				}
			}
			mem := tbl.Rel.Clone()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = Open(WithDataDir(dir))
			defer db.Close()
			if tbl, err := db.cat.Table("i"); err != nil {
				t.Fatal(err)
			} else if d := mem.Diff(tbl.Rel); d != "" {
				t.Errorf("reopened table differs from memory: %s", d)
			}
		})
	}
}

func TestExecDropTable(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("t", Col("a", Int))
	if _, err := db.Exec(`DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT * FROM t`); err == nil {
		t.Error("dropped table still queryable")
	}
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Error("dropping a missing table must fail")
	}
}

func TestExecSelectUsesStrategy(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("l", Col("n", Int))
	db.MustCreateTable("r", Col("n", Int))
	db.MustInsert("l", []any{1}, []any{2})
	db.MustInsert("r", []any{2})
	q := `SELECT n FROM l WHERE EXISTS (SELECT * FROM r WHERE r.n = l.n)`
	for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt, Auto} {
		res, err := db.ExecStrategy(q, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.Len() != 1 || res.Rows[0][0].(int64) != 2 {
			t.Errorf("%v: rows = %v", s, res.Rows)
		}
	}
}

func TestExecErrors(t *testing.T) {
	db := Open()
	defer db.Close()
	bad := []string{
		"",
		"UPDATE t SET a = 1",
		"INSERT INTO t (1)",
		"CREATE TABLE t a INT",
		"INSERT INTO t VALUES (1) garbage",
		"DROP TABLE",
	}
	for _, stmt := range bad {
		if _, err := db.Exec(stmt); err == nil {
			t.Errorf("Exec(%q) should fail", stmt)
		}
	}
}

func TestExecNegativeLiterals(t *testing.T) {
	db := Open()
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a INT, f FLOAT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (-5, -2.5)`); err != nil {
		t.Fatal(err)
	}
	res, _ := db.Exec(`SELECT a, f FROM t`)
	if res.Rows[0][0].(int64) != -5 || res.Rows[0][1].(float64) != -2.5 {
		t.Errorf("negative literals wrong: %v", res.Rows)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (-'x', 1)`); err == nil ||
		!strings.Contains(err.Error(), "number") {
		t.Errorf("minus before string should fail: %v", err)
	}
}

// TestSignedZeroJoinsAcrossStrategies: 0.0 and -0.0 are equal under
// value.Compare, so a hash-bound strategy must put them in one bucket
// exactly as tuple iteration matches them. The durable run reopens the
// store so the detail's key hashes come from the decoded segment
// (Segment.KeyHashes), which must keep the stored -0.0 bit pattern yet
// hash it as +0.0.
func TestSignedZeroJoinsAcrossStrategies(t *testing.T) {
	load := func(t *testing.T, db *DB) {
		t.Helper()
		for _, stmt := range []string{
			`CREATE TABLE A (k FLOAT)`,
			`CREATE TABLE B (k FLOAT, v INT)`,
			`INSERT INTO A VALUES (0.0)`,
			`INSERT INTO B VALUES (-0.0, 7)`,
		} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}
	check := func(t *testing.T, db *DB) {
		t.Helper()
		res, err := db.Exec(`SELECT b.k FROM B b`)
		if err != nil || !math.Signbit(res.Rows[0][0].(float64)) {
			t.Fatalf("stored cell lost its sign bit: %v, %v", res, err)
		}
		const q = `SELECT a.k FROM A a WHERE EXISTS (SELECT * FROM B b WHERE b.k = a.k)`
		for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
			res, err := db.ExecStrategy(q, s)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			if res.Len() != 1 {
				t.Errorf("%v: %d rows, want 1 (0.0 = -0.0)", s, res.Len())
			}
		}
		res, err = db.Exec(`SELECT DISTINCT u.k FROM (SELECT a.k FROM A a UNION ALL SELECT b.k FROM B b) u`)
		if err != nil || res.Len() != 1 {
			t.Errorf("DISTINCT over 0.0 and -0.0: %v, %v; want 1 row", res, err)
		}
	}
	t.Run("memory", func(t *testing.T) {
		db := Open()
		defer db.Close()
		load(t, db)
		check(t, db)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		db := Open(WithDataDir(dir))
		load(t, db)
		if _, err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = Open(WithDataDir(dir))
		defer db.Close()
		check(t, db)
	})
}

// TestGroupingAgreesWithEquality: "same key" has one definition. The
// set operations, DISTINCT and GROUP BY group by Tuple.Key while =, IN,
// joins and the GMDJ compare and hash, so a question phrased either way
// must get one answer — INT 1 and FLOAT 1.0 are one value in both, and
// a separator byte inside a string never merges two rows. Every
// strategy shares exec's set operations, so the four-strategy oracle
// alone cannot see a disagreement between the two phrasings.
func TestGroupingAgreesWithEquality(t *testing.T) {
	db := Open()
	defer db.Close()
	for _, stmt := range []string{
		`CREATE TABLE A (x INT)`,
		`CREATE TABLE B (y FLOAT)`,
		`INSERT INTO A VALUES (1), (2)`,
		`INSERT INTO B VALUES (1.0), (3.0)`,
		`CREATE TABLE S (p STRING, q STRING)`,
		"INSERT INTO S VALUES ('a\x1f3b', 'c'), ('a', 'b\x1f3c')",
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	cases := []struct {
		q    string
		want []float64 // first column, sorted; nil checks the row count only
		rows int
	}{
		{`SELECT a.x FROM A a INTERSECT SELECT b.y FROM B b`, []float64{1}, 1},
		{`SELECT a.x FROM A a WHERE a.x IN (SELECT b.y FROM B b)`, []float64{1}, 1},
		{`SELECT a.x FROM A a EXCEPT SELECT b.y FROM B b`, []float64{2}, 1},
		{`SELECT a.x FROM A a WHERE a.x NOT IN (SELECT b.y FROM B b)`, []float64{2}, 1},
		{`SELECT a.x FROM A a UNION SELECT b.y FROM B b`, []float64{1, 2, 3}, 3},
		{`SELECT DISTINCT s.p, s.q FROM S s`, nil, 2},
		{`SELECT s.p, s.q, COUNT(*) FROM S s GROUP BY s.p, s.q`, nil, 2},
	}
	for _, c := range cases {
		for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
			res, err := db.ExecStrategy(c.q, s)
			if err != nil {
				t.Fatalf("%v: %s: %v", s, c.q, err)
			}
			if res.Len() != c.rows {
				t.Errorf("%v: %s: %d rows %v, want %d", s, c.q, res.Len(), res.Rows, c.rows)
				continue
			}
			if c.want == nil {
				continue
			}
			got := make([]float64, res.Len())
			for i, row := range res.Rows {
				switch v := row[0].(type) {
				case int64:
					got[i] = float64(v)
				case float64:
					got[i] = v
				}
			}
			sort.Float64s(got)
			if !slices.Equal(got, c.want) {
				t.Errorf("%v: %s = %v, want %v", s, c.q, got, c.want)
			}
		}
	}
}

// TestNaNEqualsOnlyNaN: value.Compare used to fall through < and > to
// "equal" with a NaN on either side, so NaN equalled every number — and
// the strategies that hash (NaN's bits) disagreed with the one that
// compares. NaN now equals NaN alone and sorts above every other number:
// the statements below have one answer under all four strategies, in
// memory and after close → reopen (zone maps and key hashes read from the
// decoded segment).
func TestNaNEqualsOnlyNaN(t *testing.T) {
	load := func(t *testing.T, db *DB) {
		t.Helper()
		for _, stmt := range []string{`CREATE TABLE a (k INT, v FLOAT)`, `CREATE TABLE b (v FLOAT)`, `INSERT INTO b VALUES (1.5), (2.5)`} {
			if _, err := db.Exec(stmt); err != nil {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
		if err := db.Insert("a", []any{1, math.NaN()}, []any{2, 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, db *DB) {
		t.Helper()
		for _, c := range []struct {
			q    string
			want []int64
		}{
			{`SELECT a.k FROM a WHERE a.v = 7`, nil},
			{`SELECT a.k FROM a WHERE EXISTS (SELECT * FROM b WHERE b.v = a.v)`, []int64{2}},
			{`SELECT a.k FROM a WHERE a.v IN (SELECT b.v FROM b)`, []int64{2}},
			{`SELECT a.k FROM a WHERE a.v > 1000000`, []int64{1}},
			{`SELECT a.k FROM a WHERE EXISTS (SELECT * FROM a a2 WHERE a2.v = a.v AND a2.v > 2)`, []int64{1}},
		} {
			for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
				res, err := db.ExecStrategy(c.q, s)
				if err != nil {
					t.Fatalf("%v: %s: %v", s, c.q, err)
				}
				var got []int64
				for _, row := range res.Rows {
					got = append(got, row[0].(int64))
				}
				slices.Sort(got)
				if !slices.Equal(got, c.want) {
					t.Errorf("%v: %s = %v, want %v", s, c.q, got, c.want)
				}
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		db := Open()
		defer db.Close()
		load(t, db)
		check(t, db)
	})
	t.Run("durable", func(t *testing.T) {
		dir := t.TempDir()
		db := Open(WithDataDir(dir))
		load(t, db)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = Open(WithDataDir(dir))
		defer db.Close()
		check(t, db)
	})
}

// Two NaN payloads: math.NaN()'s, and the one Inf−Inf yields on amd64.
var nan1, nan2 = math.NaN(), math.Float64frombits(0xfff8_0000_0000_0000)

// TestOneNaNKey: NaNs with different payloads are Equal, so DISTINCT,
// GROUP BY and the set operations must each see one NaN — their keys
// (value.AppendKey) write one payload, as Hash does.
func TestOneNaNKey(t *testing.T) {
	db := Open()
	defer db.Close()
	db.MustCreateTable("T", Col("x", Float))
	db.MustCreateTable("U", Col("y", Float))
	db.MustInsert("T", []any{nan1}, []any{nan2}, []any{1.5})
	db.MustInsert("U", []any{nan2})
	for _, c := range []struct {
		q    string
		rows int
	}{
		{`SELECT DISTINCT t.x FROM T t`, 2},
		{`SELECT t.x, COUNT(*) FROM T t GROUP BY t.x`, 2},
		{`SELECT t.x FROM T t EXCEPT SELECT u.y FROM U u`, 1},
		{`SELECT t.x FROM T t INTERSECT SELECT u.y FROM U u`, 1},
	} {
		for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
			res, err := db.ExecStrategy(c.q, s)
			if err != nil {
				t.Fatalf("%v: %s: %v", s, c.q, err)
			}
			if res.Len() != c.rows {
				t.Errorf("%v: %s: %d rows %v, want %d", s, c.q, res.Len(), res.Rows, c.rows)
			}
		}
	}
}

// TestCountDistinctAgreesWithEquality: COUNT(DISTINCT x) counts the
// values DISTINCT keeps — ±0 are one, two NaN payloads are one, INT 1
// beside FLOAT 1.0 is one — scalar, grouped and correlated (the GMDJ's
// fold) alike.
func TestCountDistinctAgreesWithEquality(t *testing.T) {
	db := Open()
	defer db.Close()
	// x is untyped, so it holds INT and FLOAT cells side by side.
	if err := db.createTable("T", []relation.Column{{Qualifier: "T", Name: "g", Type: value.KindInt}, {Qualifier: "T", Name: "x"}}); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("B", Col("g", Int), Col("n", Int))
	db.MustInsert("T", []any{1, 0.0}, []any{1, math.Copysign(0, -1)}, []any{1, nan1}, []any{1, nan2},
		[]any{1, 1.0}, []any{1, int64(1)}, []any{1, 1.0}, []any{1, nil})
	db.MustInsert("B", []any{1, 3}, []any{2, 0})
	for _, c := range []struct {
		q    string
		rows int
	}{
		{`SELECT DISTINCT t.x FROM T t WHERE t.x IS NOT NULL`, 3},
		{`SELECT COUNT(DISTINCT t.x) AS n FROM T t`, 1},
		{`SELECT t.g, COUNT(DISTINCT t.x) AS n FROM T t GROUP BY t.g`, 1},
		{`SELECT b.g FROM B b WHERE b.n = (SELECT COUNT(DISTINCT t.x) FROM T t WHERE t.g = b.g)`, 2},
	} {
		for _, s := range []Strategy{Native, Unnest, GMDJ, GMDJOpt} {
			res, err := db.ExecStrategy(c.q, s)
			if err != nil {
				t.Fatalf("%v: %s: %v", s, c.q, err)
			}
			if res.Len() != c.rows {
				t.Errorf("%v: %s: %d rows %v, want %d", s, c.q, res.Len(), res.Rows, c.rows)
			} else if n := res.Rows[0][len(res.Rows[0])-1]; strings.Contains(c.q, " AS n ") && n != int64(3) {
				t.Errorf("%v: %s = %v, want 3", s, c.q, n)
			}
		}
	}
}
