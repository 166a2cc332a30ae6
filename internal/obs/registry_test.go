package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilObserverHooks is the nil-safety contract: every exported
// method of *Observer must be a no-op (not a panic) on a nil receiver,
// because the engine threads the observer through unconditionally. The
// table below exercises each method; the reflection check at the end
// fails the test if a new exported method is added without extending
// the table.
func TestNilObserverHooks(t *testing.T) {
	var o *Observer
	hooks := map[string]func(){
		"QueryStart": func() {
			if q := o.QueryStart(context.Background(), "SELECT 1", "native"); q != nil {
				t.Error("nil QueryStart returned a live entry")
			}
		},
		"QueryEnd": func() { o.QueryEnd(nil, time.Second, 5, &Op{Label: "Scan t"}, "ok", "") },
		"OpSample": func() { o.OpSample("scan", time.Millisecond, 10) },
		"SlowLog": func() {
			if o.SlowLog() != nil {
				t.Error("nil SlowLog not nil")
			}
		},
		"Histograms": func() {
			if len(o.Histograms()) != 0 {
				t.Error("nil Histograms not empty")
			}
		},
		"InFlight": func() {
			if len(o.InFlight()) != 0 {
				t.Error("nil InFlight not empty")
			}
		},
		"FormatInFlight": func() { _ = o.FormatInFlight() },
		"SetMemSource":   func() { o.SetMemSource(func() any { return nil }) },
		"SetTraceSource": func() { o.SetTraceSource(func(io.Writer) error { return nil }) },
		"Handler": func() {
			rec := httptest.NewRecorder()
			o.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/olap/queries", nil))
			if rec.Code != 503 {
				t.Errorf("nil Handler status = %d, want 503", rec.Code)
			}
		},
	}
	for name, fn := range hooks {
		t.Run(name, func(*testing.T) { fn() })
	}
	// Completeness: the table must name every exported method.
	typ := reflect.TypeOf(o)
	for i := 0; i < typ.NumMethod(); i++ {
		if name := typ.Method(i).Name; hooks[name] == nil {
			t.Errorf("exported method %s missing from the nil-safety table", name)
		}
	}
	// And the LiveQuery hooks the executor calls:
	var q *LiveQuery
	q.AddOut(1, 10)
	q.AddScanned(5)
	q.AddDetail(3)
}

func TestObserverLifecycle(t *testing.T) {
	o := NewObserver(ObserverConfig{SlowQueryThreshold: 0, SlowLogCapacity: 4})
	q := o.QueryStart(WithTenant(WithRequestID(context.Background(), "rid-lifecycle"), "acme"), "SELECT * FROM flows", "gmdj-opt")
	if q == nil {
		t.Fatal("QueryStart returned nil")
	}
	q.AddOut(7, 700)
	q.AddScanned(300)
	q.AddDetail(33)

	live := o.InFlight()
	if len(live) != 1 {
		t.Fatalf("InFlight = %d entries, want 1", len(live))
	}
	if live[0].Rows != 7 || live[0].Bytes != 700 || live[0].Scanned != 300 || live[0].DetailRows != 33 {
		t.Errorf("live counters = %+v", live[0])
	}
	if live[0].RequestID != "rid-lifecycle" || live[0].Tenant != "acme" {
		t.Errorf("live identity = rid %q tenant %q, want rid-lifecycle/acme", live[0].RequestID, live[0].Tenant)
	}

	root := &Op{Label: "Project [x]", Elapsed: time.Millisecond, Rows: 7,
		Children: []*Op{{Label: "Scan flows->F", Elapsed: time.Millisecond, Rows: 300}}}
	o.QueryEnd(q, 3*time.Millisecond, 7, root, "ok", "")

	if n := len(o.InFlight()); n != 0 {
		t.Errorf("InFlight after end = %d, want 0", n)
	}
	h := o.Histograms()
	if h["query_ns.gmdj-opt"].Count != 1 || h["query_rows.gmdj-opt"].Count != 1 {
		t.Errorf("query histograms not recorded: %v", h)
	}
	if h["op_ns.project"].Count != 1 || h["op_ns.scan"].Count != 1 {
		t.Errorf("op histograms not recorded: %v", h)
	}
	if o.SlowLog().Len() != 1 {
		t.Errorf("slowlog len = %d, want 1", o.SlowLog().Len())
	}
	recs := o.SlowLog().Entries()
	if recs[0].RequestID != "rid-lifecycle" || recs[0].Tenant != "acme" {
		t.Errorf("slowlog identity = rid %q tenant %q, want rid-lifecycle/acme", recs[0].RequestID, recs[0].Tenant)
	}
}

func TestOpKind(t *testing.T) {
	for label, want := range map[string]string{
		"Scan Flow->F":                    "scan",
		"Project [H.HourDsc]":             "project",
		"Select [cnt1 > 0]":               "select",
		"GMDJ +completion (1 conditions)": "gmdj",
		"Join(inner)":                     "join",
	} {
		if got := OpKind(label); got != want {
			t.Errorf("OpKind(%q) = %q, want %q", label, got, want)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	q := o.QueryStart(context.Background(), "SELECT 1", "native")
	q.AddOut(2, 20)
	h := o.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/debug/olap/queries")
	if rec.Code != 200 {
		t.Fatalf("queries status %d", rec.Code)
	}
	var live []LiveSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &live); err != nil {
		t.Fatalf("queries not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(live) != 1 || live[0].Rows != 2 || live[0].SQL != "SELECT 1" {
		t.Errorf("queries JSON = %+v", live)
	}

	if rec := get("/debug/olap/queries?format=text"); !strings.Contains(rec.Body.String(), "SELECT 1") {
		t.Errorf("text queries missing SQL:\n%s", rec.Body.String())
	}

	o.QueryEnd(q, time.Millisecond, 2, nil, "ok", "")
	rec = get("/debug/olap/hist")
	var hist map[string]HistSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &hist); err != nil {
		t.Fatalf("hist not JSON: %v", err)
	}
	if hist["query_ns.native"].Count != 1 {
		t.Errorf("hist JSON missing query_ns.native: %v", hist)
	}
	if rec := get("/debug/olap/hist?format=text"); !strings.Contains(rec.Body.String(), "query_ns.native") {
		t.Errorf("text hist:\n%s", rec.Body.String())
	}

	if rec := get("/debug/olap/slowlog"); rec.Code != 200 {
		t.Errorf("slowlog status %d", rec.Code)
	}
	if rec := get("/debug/olap/trace"); rec.Code != 404 {
		t.Errorf("unregistered trace status %d, want 404", rec.Code)
	}
	tr := NewTracer(16)
	tr.SpanArgs("serve", "request", 7, time.Now(), time.Millisecond, "rid=abc tenant=t1")
	o.SetTraceSource(tr.WriteJSON)
	rec = get("/debug/olap/trace")
	if rec.Code != 200 {
		t.Fatalf("trace status %d", rec.Code)
	}
	if cd := rec.Header().Get("Content-Disposition"); !strings.Contains(cd, "olap-trace.json") {
		t.Errorf("trace Content-Disposition = %q", cd)
	}
	if body := rec.Body.String(); !strings.Contains(body, "rid=abc") || !strings.Contains(body, `"cat":"serve"`) {
		t.Errorf("trace body missing span args:\n%s", body)
	}
	if rec := get("/debug/olap/nope"); rec.Code != 404 {
		t.Errorf("unknown path status %d, want 404", rec.Code)
	}
}
