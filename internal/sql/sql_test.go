package sql

import (
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/relation"
)

func testEngine(t *testing.T) *engine.Engine {
	e := engine.New(datagen.Netflow(datagen.NetflowOpts{Flows: 400, Hours: 6, Users: 8, Seed: 21}))
	t.Cleanup(func() { e.Close() })
	return e
}

func mustParse(t *testing.T, q string) algebra.Node {
	t.Helper()
	plan, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return plan
}

func runQuery(t *testing.T, e *engine.Engine, q string, s engine.Strategy) *relation.Relation {
	t.Helper()
	plan := mustParse(t, q)
	out, err := e.Run(plan, s)
	if err != nil {
		t.Fatalf("Run(%q, %v): %v", q, s, err)
	}
	return out
}

func TestParseSimpleSelect(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT * FROM Hours", engine.Native)
	if out.Len() != 6 {
		t.Errorf("rows = %d", out.Len())
	}
	out = runQuery(t, e, "SELECT HourDsc FROM Hours WHERE StartInterval >= 120", engine.Native)
	if out.Len() != 4 || out.Schema.Len() != 1 {
		t.Errorf("rows = %d, cols = %d", out.Len(), out.Schema.Len())
	}
}

func TestParseAliasAndQualified(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT H.HourDsc FROM Hours H WHERE H.HourDsc = 3", engine.Native)
	if out.Len() != 1 || out.Rows[0][0].AsInt() != 3 {
		t.Errorf("got %v", out.Rows)
	}
	out = runQuery(t, e, "SELECT h.HourDsc AS hr FROM Hours AS h WHERE h.HourDsc <= 2", engine.Native)
	if out.Len() != 2 || out.Schema.Columns[0].Name != "hr" {
		t.Errorf("alias handling wrong: %v", out.Schema)
	}
}

func TestParseDistinctAndExpressions(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT DISTINCT Protocol FROM Flow", engine.Native)
	if out.Len() < 2 || out.Len() > 6 {
		t.Errorf("distinct protocols = %d", out.Len())
	}
	out = runQuery(t, e, "SELECT NumBytes / 2 AS half FROM Flow WHERE NumBytes >= 100", engine.Native)
	if out.Schema.Columns[0].Name != "half" {
		t.Error("computed alias lost")
	}
}

func TestParseStringAndArithPrecedence(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e,
		"SELECT * FROM Flow WHERE Protocol = 'HTTP' AND NumBytes + 2 * 10 > 60", engine.Native)
	for _, row := range out.Rows {
		if row[3].AsString() != "HTTP" {
			t.Fatal("string predicate failed")
		}
		if row[4].AsInt()+20 <= 60 {
			t.Fatal("precedence wrong: * must bind tighter than +")
		}
	}
}

func TestParseGroupBy(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e,
		"SELECT Protocol, COUNT(*) AS cnt, SUM(NumBytes) AS total FROM Flow GROUP BY Protocol",
		engine.Native)
	if out.Schema.Len() != 3 {
		t.Fatalf("cols = %d", out.Schema.Len())
	}
	var totalCnt int64
	for _, row := range out.Rows {
		totalCnt += row[1].AsInt()
	}
	if totalCnt != 400 {
		t.Errorf("counts sum to %d, want 400", totalCnt)
	}
}

func TestParseGroupByValidation(t *testing.T) {
	if _, err := Parse("SELECT Protocol, NumBytes FROM Flow GROUP BY Protocol"); err == nil {
		t.Error("ungrouped column must be rejected")
	}
	if _, err := Parse("SELECT * FROM Flow GROUP BY Protocol"); err == nil {
		t.Error("* with GROUP BY must be rejected")
	}
}

func TestParseExistsSubquery(t *testing.T) {
	e := testEngine(t)
	q := `SELECT H.HourDsc FROM Hours H WHERE EXISTS (
	        SELECT * FROM Flow F
	        WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval
	          AND F.Protocol = 'FTP')`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		got := runQuery(t, e, q, s)
		if d := native.Diff(got); d != "" {
			t.Errorf("%v differs: %s", s, d)
		}
	}
}

func TestParseNotExistsAndNot(t *testing.T) {
	e := testEngine(t)
	q := `SELECT H.HourDsc FROM Hours H WHERE NOT EXISTS (
	        SELECT * FROM Flow F
	        WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval
	          AND F.Protocol = 'DNS')`
	native := runQuery(t, e, q, engine.Native)
	qNot := strings.Replace(q, "NOT EXISTS", "NOT  EXISTS", 1)
	if d := native.Diff(runQuery(t, e, qNot, engine.GMDJ)); d != "" {
		t.Error(d)
	}
}

func TestParseInNotIn(t *testing.T) {
	e := testEngine(t)
	q := `SELECT U.Name FROM User U WHERE U.IPAddress IN (SELECT F.SourceIP FROM Flow F)`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := native.Diff(runQuery(t, e, q, s)); d != "" {
			t.Errorf("%v differs: %s", s, d)
		}
	}
	q2 := `SELECT U.Name FROM User U WHERE U.IPAddress NOT IN
	        (SELECT F.SourceIP FROM Flow F WHERE F.NumBytes > 500000)`
	native2 := runQuery(t, e, q2, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := native2.Diff(runQuery(t, e, q2, s)); d != "" {
			t.Errorf("%v differs on NOT IN: %s", s, d)
		}
	}
}

func TestParseQuantified(t *testing.T) {
	e := testEngine(t)
	q := `SELECT H.HourDsc FROM Hours H WHERE H.StartInterval < ANY
	        (SELECT F.StartTime FROM Flow F WHERE F.Protocol = 'HTTP')`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := native.Diff(runQuery(t, e, q, s)); d != "" {
			t.Errorf("%v differs on ANY: %s", s, d)
		}
	}
	qAll := `SELECT H.HourDsc FROM Hours H WHERE H.EndInterval > ALL
	          (SELECT F.StartTime FROM Flow F WHERE F.NumBytes < 1000)`
	nativeAll := runQuery(t, e, qAll, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := nativeAll.Diff(runQuery(t, e, qAll, s)); d != "" {
			t.Errorf("%v differs on ALL: %s", s, d)
		}
	}
}

func TestParseScalarAggregateSubquery(t *testing.T) {
	e := testEngine(t)
	q := `SELECT F.SourceIP, F.NumBytes FROM Flow F WHERE F.NumBytes > (
	        SELECT AVG(G.NumBytes) FROM Flow G WHERE G.Protocol = F.Protocol)`
	native := runQuery(t, e, q, engine.Native)
	if native.Len() == 0 {
		t.Fatal("query should select some rows")
	}
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := native.Diff(runQuery(t, e, q, s)); d != "" {
			t.Errorf("%v differs on scalar aggregate: %s", s, d)
		}
	}
}

func TestParseIsNull(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT * FROM Flow WHERE NumBytes IS NOT NULL", engine.Native)
	if out.Len() != 400 {
		t.Errorf("IS NOT NULL rows = %d", out.Len())
	}
	out = runQuery(t, e, "SELECT * FROM Flow WHERE NumBytes IS NULL", engine.Native)
	if out.Len() != 0 {
		t.Errorf("IS NULL rows = %d", out.Len())
	}
}

func TestParseParenthesizedPredicates(t *testing.T) {
	e := testEngine(t)
	q := `SELECT * FROM Hours H WHERE (H.HourDsc = 1 OR H.HourDsc = 2) AND H.StartInterval >= 0`
	out := runQuery(t, e, q, engine.Native)
	if out.Len() != 2 {
		t.Errorf("rows = %d, want 2", out.Len())
	}
	// Parenthesized arithmetic on the left of a comparison.
	q2 := `SELECT * FROM Hours H WHERE (H.StartInterval + H.EndInterval) / 2 > 100`
	if _, err := Parse(q2); err != nil {
		t.Errorf("parenthesized arithmetic: %v", err)
	}
}

func TestParseMultiTableFrom(t *testing.T) {
	e := testEngine(t)
	q := `SELECT H.HourDsc, COUNT(*) AS cnt FROM Hours H, Flow F
	       WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval
	       GROUP BY H.HourDsc`
	out := runQuery(t, e, q, engine.Native)
	var total int64
	for _, row := range out.Rows {
		total += row[1].AsInt()
	}
	if total != 400 {
		t.Errorf("join-group total = %d, want 400 (every flow in exactly one hour)", total)
	}
}

func TestParseNestedTwoLevels(t *testing.T) {
	e := testEngine(t)
	q := `SELECT U.Name FROM User U WHERE NOT EXISTS (
	        SELECT * FROM Hours H WHERE NOT EXISTS (
	          SELECT * FROM Flow F
	          WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval
	            AND F.SourceIP = U.IPAddress))`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		if d := native.Diff(runQuery(t, e, q, s)); d != "" {
			t.Errorf("%v differs on division query: %s", s, d)
		}
	}
}

func TestParseStringEscapes(t *testing.T) {
	plan := mustParse(t, "SELECT * FROM Flow WHERE Protocol = 'it''s'")
	if !strings.Contains(plan.String(), "it's") {
		t.Errorf("escape not handled: %s", plan)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FORM Flow",
		"SELECT * FROM Flow WHERE",
		"SELECT * FROM Flow WHERE Protocol =",
		"SELECT * FROM Flow WHERE EXISTS Flow",
		"SELECT * FROM Flow WHERE x IN (SELECT a, b FROM Flow)",
		"SELECT * FROM Flow extra garbage here ~",
		"SELECT * FROM Flow WHERE Protocol = 'unterminated",
		"SELECT *, Protocol FROM Flow",
		"SELECT * FROM Flow WHERE a ! b",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseNegativeNumbersAndFloats(t *testing.T) {
	e := testEngine(t)
	out := runQuery(t, e, "SELECT * FROM Flow WHERE NumBytes > -1 AND NumBytes > 0.5", engine.Native)
	if out.Len() != 400 {
		t.Errorf("rows = %d", out.Len())
	}
}

func TestParsedPlansAgreeAcrossStrategiesRandomly(t *testing.T) {
	e := testEngine(t)
	queries := []string{
		`SELECT H.HourDsc FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval) AND H.HourDsc > 1`,
		`SELECT U.Name FROM User U WHERE U.IPAddress IN (SELECT F.SourceIP FROM Flow F WHERE F.Protocol = 'HTTP') AND U.Name <> 'user0003'`,
		`SELECT H.HourDsc FROM Hours H WHERE NOT EXISTS (SELECT * FROM Flow F WHERE F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval AND F.NumBytes > 900000)`,
	}
	for _, q := range queries {
		native := runQuery(t, e, q, engine.Native)
		for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
			if d := native.Diff(runQuery(t, e, q, s)); d != "" {
				t.Errorf("query %q strategy %v differs: %s", q, s, d)
			}
		}
	}
}
