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

// TestMetricsAccumulate checks the process-counter surface through the
// facade. Metrics are process-global, so assert on deltas.
func TestMetricsAccumulate(t *testing.T) {
	db := gmdj.OpenNetflowSample(500)
	before := db.Metrics()
	if _, err := db.QueryStrategy(obsTestQuery, gmdj.GMDJOpt); err != nil {
		t.Fatal(err)
	}
	after := db.Metrics()
	if d := after["queries.gmdj-opt"] - before["queries.gmdj-opt"]; d != 1 {
		t.Errorf("queries.gmdj-opt delta = %d, want 1", d)
	}
	if d := after["rows_scanned"] - before["rows_scanned"]; d <= 0 {
		t.Errorf("rows_scanned delta = %d, want > 0", d)
	}
	if d := after["gmdj.detail_rows"] - before["gmdj.detail_rows"]; d <= 0 {
		t.Errorf("gmdj.detail_rows delta = %d, want > 0", d)
	}
}
