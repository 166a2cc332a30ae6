package gmdj_test

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	gmdj "github.com/olaplab/gmdj"
)

const obsTestQuery = `SELECT f.SourceIP FROM Flow f
	WHERE NOT EXISTS (SELECT * FROM Flow g
		WHERE g.SourceIP = f.SourceIP AND g.NumBytes > 400000)`

// TestQueryAnalyzeReconciles runs the same query through QueryAnalyze
// under every strategy and checks that the annotated plan's root
// cardinality matches the returned result — the -explain CLI contract.
func TestQueryAnalyzeReconciles(t *testing.T) {
	for _, s := range []gmdj.Strategy{gmdj.Native, gmdj.Unnest, gmdj.GMDJ, gmdj.GMDJOpt} {
		db := gmdj.OpenNetflowSample(1000)
		defer db.Close()
		res, plan, err := db.QueryAnalyze(obsTestQuery, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !strings.HasPrefix(plan, "strategy: "+s.String()+" (analyzed)") {
			t.Errorf("%v: header missing:\n%s", s, plan)
		}
		// The root operator line is the first line after the header; its
		// actual-cardinality annotation (act= when the cost model
		// attached an estimate, rows= otherwise) must equal the result
		// cardinality.
		lines := strings.Split(plan, "\n")
		if len(lines) < 2 {
			t.Fatalf("%v: short plan:\n%s", s, plan)
		}
		rows := -1
		for _, f := range strings.Fields(lines[1]) {
			v, ok := strings.CutPrefix(f, "act=")
			if !ok {
				v, ok = strings.CutPrefix(f, "rows=")
			}
			if ok {
				rows, _ = strconv.Atoi(strings.TrimRight(v, ")"))
			}
		}
		if rows != res.Len() {
			t.Errorf("%v: plan root rows=%d, result has %d:\n%s", s, rows, res.Len(), plan)
		}
	}
}

// TestTraceRoundTrip checks the full tracing path through the facade:
// enable, run, export, parse.
func TestTraceRoundTrip(t *testing.T) {
	db := gmdj.OpenNetflowSample(500, gmdj.WithParallelism(4))
	defer db.Close()
	var buf bytes.Buffer
	if err := db.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace before EnableTracing must error")
	}
	db.EnableTracing(1 << 10)
	if _, err := db.Query(obsTestQuery); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := db.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var ops, workers int
	for _, e := range trace.TraceEvents {
		switch e.Cat {
		case "op":
			ops++
		case "gmdj":
			workers++
		}
	}
	if ops == 0 {
		t.Error("trace has no operator spans")
	}
	if workers == 0 {
		t.Error("trace has no GMDJ worker spans (parallelism was 4)")
	}
}

// TestMetricsAccumulate checks the counter surface through the facade.
// Counters are per DB, so a fresh database starts from nothing and the
// values are absolute.
func TestMetricsAccumulate(t *testing.T) {
	db := gmdj.OpenNetflowSample(500)
	defer db.Close()
	if n := db.Metrics()["queries.gmdj-opt"]; n != 0 {
		t.Fatalf("a fresh DB already counts %d queries", n)
	}
	for i := 0; i < 2; i++ {
		if _, err := db.QueryStrategy(obsTestQuery, gmdj.GMDJOpt); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	if m["queries.gmdj-opt"] != 2 {
		t.Errorf("queries.gmdj-opt = %d, want 2", m["queries.gmdj-opt"])
	}
	if m["plancache.miss"] != 1 || m["plancache.hit"] != 1 {
		t.Errorf("plancache miss/hit = %d/%d, want 1/1", m["plancache.miss"], m["plancache.hit"])
	}
	// Each query scans the 500-row Flow table twice: as base and as
	// detail of the GMDJ.
	if m["rows_scanned"] != 2*(500+500) {
		t.Errorf("rows_scanned = %d, want %d", m["rows_scanned"], 2*(500+500))
	}
	if m["gmdj.detail_rows"] <= 0 || m["gmdj.detail_rows"]%2 != 0 {
		t.Errorf("gmdj.detail_rows = %d, want the same positive count twice", m["gmdj.detail_rows"])
	}
}
