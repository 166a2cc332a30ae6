package sql

import (
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/engine"
)

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT HourDsc FROM Hours ORDER BY HourDsc DESC", engine.Native)
	if out.Len() != 6 || out.Rows[0][0].AsInt() != 6 || out.Rows[5][0].AsInt() != 1 {
		t.Errorf("DESC order wrong: %v", out.Rows)
	}
	out = runQuery(t, e, "SELECT HourDsc FROM Hours ORDER BY HourDsc ASC LIMIT 2", engine.Native)
	if out.Len() != 2 || out.Rows[0][0].AsInt() != 1 || out.Rows[1][0].AsInt() != 2 {
		t.Errorf("LIMIT wrong: %v", out.Rows)
	}
	// LIMIT without ORDER BY.
	out = runQuery(t, e, "SELECT * FROM Flow LIMIT 5", engine.Native)
	if out.Len() != 5 {
		t.Errorf("bare LIMIT = %d rows", out.Len())
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e,
		"SELECT Protocol, NumBytes FROM Flow ORDER BY Protocol ASC, NumBytes DESC LIMIT 50",
		engine.Native)
	for i := 1; i < out.Len(); i++ {
		p0, p1 := out.Rows[i-1][0].AsString(), out.Rows[i][0].AsString()
		if p0 > p1 {
			t.Fatalf("row %d: protocol order violated (%s > %s)", i, p0, p1)
		}
		if p0 == p1 && out.Rows[i-1][1].AsInt() < out.Rows[i][1].AsInt() {
			t.Fatalf("row %d: bytes DESC violated within group", i)
		}
	}
}

func TestOrderByThroughGMDJStrategy(t *testing.T) {
	e := testEngine(t)
	q := `SELECT h.HourDsc FROM Hours h WHERE EXISTS (
	        SELECT * FROM Flow f
	        WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval)
	      ORDER BY h.HourDsc DESC`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		got := runQuery(t, e, q, s)
		if got.Len() != native.Len() {
			t.Fatalf("%v row count differs", s)
		}
		for i := range got.Rows {
			if got.Rows[i][0].AsInt() != native.Rows[i][0].AsInt() {
				t.Errorf("%v order differs at %d", s, i)
			}
		}
	}
}

func TestHaving(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e,
		`SELECT Protocol, COUNT(*) AS n FROM Flow GROUP BY Protocol HAVING n > 50`,
		engine.Native)
	for _, row := range out.Rows {
		if row[1].AsInt() <= 50 {
			t.Errorf("HAVING leaked group with n = %v", row[1])
		}
	}
	if _, err := Parse("SELECT Protocol FROM Flow HAVING Protocol = 'x'"); err == nil {
		t.Error("HAVING without GROUP BY must fail")
	}
}

func TestBetween(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT * FROM Hours WHERE HourDsc BETWEEN 2 AND 4", engine.Native)
	if out.Len() != 3 {
		t.Errorf("BETWEEN rows = %d, want 3", out.Len())
	}
	out = runQuery(t, e, "SELECT * FROM Hours WHERE HourDsc NOT BETWEEN 2 AND 4", engine.Native)
	if out.Len() != 3 {
		t.Errorf("NOT BETWEEN rows = %d, want 3", out.Len())
	}
}

func TestLike(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT DISTINCT Protocol FROM Flow WHERE Protocol LIKE 'H%'", engine.Native)
	if out.Len() != 1 || out.Rows[0][0].AsString() != "HTTP" {
		t.Errorf("LIKE = %v", out.Rows)
	}
	out = runQuery(t, e, "SELECT DISTINCT Protocol FROM Flow WHERE Protocol NOT LIKE '%T%'", engine.Native)
	for _, row := range out.Rows {
		if strings.Contains(row[0].AsString(), "T") {
			t.Errorf("NOT LIKE leaked %v", row[0])
		}
	}
	out = runQuery(t, e, "SELECT DISTINCT Protocol FROM Flow WHERE Protocol LIKE '_TT_'", engine.Native)
	if out.Len() != 1 {
		t.Errorf("underscore LIKE = %v", out.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	e := testEngine(t)
	q := `SELECT big.Protocol, COUNT(*) AS n
	      FROM (SELECT Protocol, NumBytes FROM Flow WHERE NumBytes > 500000) AS big
	      GROUP BY big.Protocol`
	out := runQuery(t, e, q, engine.Native)
	if out.Len() == 0 {
		t.Fatal("derived table query returned nothing")
	}
	var total int64
	for _, row := range out.Rows {
		total += row[1].AsInt()
	}
	direct := runQuery(t, e, "SELECT COUNT(*) AS n FROM Flow WHERE NumBytes > 500000", engine.Native)
	if total != direct.Rows[0][0].AsInt() {
		t.Errorf("derived-table total %d != direct %d", total, direct.Rows[0][0].AsInt())
	}
	if _, err := Parse("SELECT * FROM (SELECT * FROM Flow)"); err == nil {
		t.Error("derived table without alias must fail")
	}
}

func TestCountDistinctAndStddev(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e,
		"SELECT COUNT(DISTINCT Protocol) AS p, STDDEV(NumBytes) AS s, VARIANCE(NumBytes) AS v FROM Flow",
		engine.Native)
	if out.Rows[0][0].AsInt() < 2 {
		t.Errorf("count distinct = %v", out.Rows[0][0])
	}
	sd, va := out.Rows[0][1].AsFloat(), out.Rows[0][2].AsFloat()
	if sd <= 0 || va <= 0 {
		t.Errorf("stddev/var = %v/%v", sd, va)
	}
	if diff := sd*sd - va; diff > 1e-6*va || diff < -1e-6*va {
		t.Errorf("stddev² (%g) != variance (%g)", sd*sd, va)
	}
}

func TestSubqueryInsideDerivedTable(t *testing.T) {
	e := testEngine(t)
	q := `SELECT d.HourDsc FROM (
	        SELECT h.HourDsc FROM Hours h WHERE EXISTS (
	          SELECT * FROM Flow f
	          WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
	            AND f.Protocol = 'FTP')) AS d
	      ORDER BY d.HourDsc`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.GMDJ, engine.GMDJOpt} {
		got := runQuery(t, e, q, s)
		if d := native.Diff(got); d != "" {
			t.Errorf("%v differs: %s", s, d)
		}
	}
}

func TestOrderByNullsFirstAscending(t *testing.T) {
	e := testEngine(t)
	// Build a table with NULLs via the engine's own catalog path is
	// exercised elsewhere; here check the comparator through a query
	// over existing data sorted by an expression that can be NULL.
	out := runQuery(t, e,
		"SELECT NumBytes / 0 AS x, NumBytes FROM Flow ORDER BY x ASC LIMIT 3", engine.Native)
	for _, row := range out.Rows {
		if !row[0].IsNull() {
			t.Errorf("division by zero should sort NULLs first: %v", row)
		}
	}
}
