package sql

import (
	"testing"

	"github.com/olaplab/gmdj/internal/engine"
)

func TestUnionDistinctAndAll(t *testing.T) {
	e := testEngine(t)
	u := runQuery(t, e,
		"SELECT Protocol FROM Flow UNION SELECT Protocol FROM Flow", engine.Native)
	d := runQuery(t, e, "SELECT DISTINCT Protocol FROM Flow", engine.Native)
	if u.Len() != d.Len() {
		t.Errorf("UNION should dedup: %d vs %d", u.Len(), d.Len())
	}
	ua := runQuery(t, e,
		"SELECT Protocol FROM Flow UNION ALL SELECT Protocol FROM Flow", engine.Native)
	if ua.Len() != 800 {
		t.Errorf("UNION ALL = %d rows, want 800", ua.Len())
	}
}

func TestExceptIntersect(t *testing.T) {
	e := testEngine(t)
	ex := runQuery(t, e,
		`SELECT Protocol FROM Flow EXCEPT SELECT Protocol FROM Flow WHERE Protocol = 'HTTP'`,
		engine.Native)
	for _, row := range ex.Rows {
		if row[0].AsString() == "HTTP" {
			t.Error("EXCEPT leaked HTTP")
		}
	}
	in := runQuery(t, e,
		`SELECT Protocol FROM Flow INTERSECT SELECT Protocol FROM Flow WHERE Protocol = 'HTTP'`,
		engine.Native)
	if in.Len() != 1 || in.Rows[0][0].AsString() != "HTTP" {
		t.Errorf("INTERSECT = %v", in.Rows)
	}
}

// TestDivisionViaExcept expresses the paper's Example 3.3 relational
// division in the set-difference style the APPLY comparison produces:
// users minus users with a missing hour.
func TestDivisionViaExcept(t *testing.T) {
	e := testEngine(t)
	division := `
	  SELECT u.IPAddress FROM User u
	  EXCEPT
	  SELECT u2.IPAddress FROM User u2, Hours h
	  WHERE NOT EXISTS (SELECT * FROM Flow f
	                    WHERE f.StartTime >= h.StartInterval
	                      AND f.StartTime < h.EndInterval
	                      AND f.SourceIP = u2.IPAddress)`
	nested := `
	  SELECT u.IPAddress FROM User u
	  WHERE NOT EXISTS (
	    SELECT * FROM Hours h
	    WHERE NOT EXISTS (
	      SELECT * FROM Flow f
	      WHERE f.StartTime >= h.StartInterval
	        AND f.StartTime < h.EndInterval
	        AND f.SourceIP = u.IPAddress))`
	a := runQuery(t, e, division, engine.Native)
	b := runQuery(t, e, nested, engine.GMDJOpt)
	if a.Len() != b.Len() {
		t.Errorf("set-difference division (%d) and double-negation GMDJ (%d) disagree",
			a.Len(), b.Len())
	}
}

func TestSetOpThroughAllStrategies(t *testing.T) {
	e := testEngine(t)
	q := `SELECT h.HourDsc FROM Hours h WHERE EXISTS (
	        SELECT * FROM Flow f
	        WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
	          AND f.Protocol = 'FTP')
	      UNION
	      SELECT h2.HourDsc FROM Hours h2 WHERE h2.HourDsc = 1`
	native := runQuery(t, e, q, engine.Native)
	for _, s := range []engine.Strategy{engine.Unnest, engine.GMDJ, engine.GMDJOpt} {
		got := runQuery(t, e, q, s)
		if d := native.Diff(got); d != "" {
			t.Errorf("%v differs: %s", s, d)
		}
	}
}

func TestSetOpWidthMismatch(t *testing.T) {
	e := testEngine(t)
	plan := mustParse(t, "SELECT HourDsc FROM Hours UNION SELECT HourDsc, StartInterval FROM Hours")
	if _, err := e.Run(plan, engine.Native); err == nil {
		t.Error("width mismatch must error")
	}
}

func TestSetOpInDerivedTable(t *testing.T) {
	e := testEngine(t)
	q := `SELECT COUNT(*) AS n FROM (
	        SELECT Protocol FROM Flow WHERE Protocol = 'FTP'
	        UNION
	        SELECT Protocol FROM Flow WHERE Protocol = 'DNS') AS p`
	out := runQuery(t, e, q, engine.Native)
	if out.Rows[0][0].AsInt() != 2 {
		t.Errorf("derived set-op count = %v, want 2", out.Rows[0][0])
	}
}
