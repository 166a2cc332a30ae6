package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// syncBuffer is a concurrency-safe log sink: the handler goroutine
// writes while the test goroutine polls.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRequestTelemetryEndToEnd drives one request through the whole
// telemetry pipeline and asserts the same request ID shows up at every
// surface: the response header, the JSON body, the structured log
// stream, the slow-query log, and the downloaded trace (where the
// serving-phase spans carry it in their args).
func TestRequestTelemetryEndToEnd(t *testing.T) {
	db := usersDB(t)
	db.EnableObservability(gmdj.ObsConfig{SlowQueryThreshold: 0})
	db.EnableTracing(4096)
	var logs syncBuffer
	s := NewServer(db, Config{
		Admin:  true,
		Logger: slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A client-supplied ID with hostile characters comes back sanitized
	// — same ID everywhere, never two.
	const rawID = "client/rid 42!"
	const rid = "client_rid_42_"
	if got := obs.SanitizeRequestID(rawID); got != rid {
		t.Fatalf("SanitizeRequestID(%q) = %q, want %q", rawID, got, rid)
	}

	body, _ := json.Marshal(map[string]any{"sql": "SELECT name FROM users WHERE score > 15"})
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, rawID)
	req.Header.Set(TenantHeader, "acme")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}

	// Surface 1: the echoed response header.
	if got := resp.Header.Get(obs.RequestIDHeader); got != rid {
		t.Errorf("response header %s = %q, want %q", obs.RequestIDHeader, got, rid)
	}

	// Surface 2: the JSON body.
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID != rid {
		t.Errorf("body request_id = %q, want %q", qr.RequestID, rid)
	}
	if qr.Tenant != "acme" {
		t.Errorf("body tenant = %q, want acme", qr.Tenant)
	}

	// Surface 3: the structured log line (written after the response
	// body flushes, so poll).
	waitFor(t, "structured log line", func() bool {
		return strings.Contains(logs.String(), rid)
	})
	var line map[string]any
	for _, l := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var m map[string]any
		if json.Unmarshal([]byte(l), &m) == nil && m["request_id"] == rid {
			line = m
			break
		}
	}
	if line == nil {
		t.Fatalf("no JSON log line with request_id %q in:\n%s", rid, logs.String())
	}
	if line["msg"] != "query" || line["tenant"] != "acme" || line["kind"] != "ok" {
		t.Errorf("log line = %v, want msg=query tenant=acme kind=ok", line)
	}

	// Surface 4: the slow-query log (threshold 0 logs everything); the
	// record carries the ID the engine picked up from the context.
	var slowRaw bytes.Buffer
	if err := db.WriteSlowLog(&slowRaw); err != nil {
		t.Fatal(err)
	}
	var recs []obs.QueryRecord
	if err := json.Unmarshal(slowRaw.Bytes(), &recs); err != nil {
		t.Fatalf("slowlog is not a JSON array: %v", err)
	}
	found := false
	for _, r := range recs {
		if r.RequestID == rid {
			found = true
			if r.Tenant != "acme" || r.Outcome != "ok" {
				t.Errorf("slowlog record = %+v, want tenant=acme outcome=ok", r)
			}
		}
	}
	if !found {
		t.Errorf("no slowlog record with request_id %q: %s", rid, slowRaw.String())
	}

	// Surface 5: the downloaded trace. Server spans and the plan span
	// are tagged with the identity in their args.
	tr, err := srv.Client().Get(srv.URL + "/debug/olap/trace")
	if err != nil {
		t.Fatal(err)
	}
	trRaw, _ := io.ReadAll(tr.Body)
	tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("trace download status = %d", tr.StatusCode)
	}
	var traceDoc any
	if err := json.Unmarshal(trRaw, &traceDoc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	trace := string(trRaw)
	if !strings.Contains(trace, "rid="+rid+" tenant=acme") {
		t.Error("trace has no span tagged with the request identity")
	}
	for _, span := range []string{`"request"`, `"tenant-gate"`, `"execute"`, `"serialize"`} {
		if !strings.Contains(trace, span) {
			t.Errorf("trace has no %s span", span)
		}
	}
	if !strings.Contains(trace, `"plan"`) {
		t.Error("trace has no plan span from the DB layer")
	}
}

// TestRequestTelemetryErrorPaths: every error exit carries the request
// ID too — typed query errors, usage errors, and injected faults.
func TestRequestTelemetryErrorPaths(t *testing.T) {
	db := usersDB(t)
	var logs syncBuffer
	s := NewServer(db, Config{
		Faults: govern.NewInjector(map[string]string{SiteAccept: "error@2"}),
		Logger: slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// @2 faults every second request: the first passes, the second
	// fails at the accept site.
	cases := []struct {
		body map[string]any
		kind string
	}{
		{map[string]any{"sql": "SELECT x FROM nope"}, "query"},
		{map[string]any{"sql": "SELECT name FROM users"}, "unavailable"},
		{map[string]any{"sql": "   "}, "usage"},
	}
	for _, c := range cases {
		resp, raw := post(t, srv, "", c.body)
		e := decodeErr(t, raw)
		if e.Kind != c.kind {
			t.Fatalf("kind = %q, want %q (%s)", e.Kind, c.kind, raw)
		}
		if e.RequestID == "" {
			t.Errorf("%s error body has no request_id: %s", c.kind, raw)
		}
		if got := resp.Header.Get(obs.RequestIDHeader); got != e.RequestID {
			t.Errorf("%s: header rid %q != body rid %q", c.kind, got, e.RequestID)
		}
	}
	// The injected fault produced both a request log line and a
	// dedicated fault line, joined by the same request ID.
	waitFor(t, "fault log line", func() bool {
		return strings.Contains(logs.String(), "fault fired")
	})
}

// scrape pulls /metrics, validates the exposition, and returns the
// parsed samples. Safe to call from any goroutine (reports errors, so
// concurrent scrapers use t.Errorf, not Fatal).
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

func scrape(srv *httptest.Server) ([]sample, error) {
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		return nil, err
	}
	doc, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("Content-Type"); got != obs.PromContentType {
		return nil, fmt.Errorf("/metrics Content-Type = %q", got)
	}
	if err := obs.ValidateExposition(doc); err != nil {
		return nil, fmt.Errorf("invalid exposition: %v", err)
	}
	var out []sample
	for _, line := range strings.Split(string(doc), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, value, err := obs.ParsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("bad sample %q: %v", line, err)
		}
		out = append(out, sample{name, labels, value})
	}
	return out, nil
}

func mustScrape(t *testing.T, srv *httptest.Server) []sample {
	t.Helper()
	samples, err := scrape(srv)
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func sumByTenant(samples []sample, name string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		if s.name == name {
			out[s.labels["tenant"]] += s.value
		}
	}
	return out
}

// TestMetricsUnderStorm hammers the server from 50 distinct tenants
// (against a label cap of 8) with a mix of outcomes while concurrently
// scraping /metrics. Run under -race this is the collector's torture
// test. Each scrape must be a valid exposition with bounded tenant
// cardinality and monotonic counters; after the storm quiesces, every
// tenant's requests counter must equal its summed responses.
func TestMetricsUnderStorm(t *testing.T) {
	db := usersDB(t)
	s := NewServer(db, Config{
		MaxTenantLabels: 8,
		SLOs:            map[string]SLO{"t00": {Availability: 0.5}},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// postRaw issues one request off the test goroutine (no t.Fatal).
	postRaw := func(tenant, sql string) error {
		raw, _ := json.Marshal(map[string]any{"sql": sql})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := srv.Client().Do(req)
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil
	}

	const tenants = 50
	const perTenant = 4
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%02d", i)
			for j := 0; j < perTenant; j++ {
				var sql string
				switch j % 3 {
				case 0:
					sql = "SELECT name FROM users"
				case 1:
					sql = "SELECT x FROM nope" // query error
				default:
					sql = " " // usage error
				}
				if err := postRaw(tenant, sql); err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
					return
				}
			}
		}(i)
	}

	// Concurrent scraper: validity, cardinality, and monotonicity under
	// live mutation.
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		lastTotal := 0.0
		for {
			select {
			case <-stop:
				return
			default:
			}
			samples, err := scrape(srv)
			if err != nil {
				t.Error(err)
				return
			}
			perTenantReq := sumByTenant(samples, "olap_requests_total")
			if len(perTenantReq) > 9 { // 8 labels + _other
				t.Errorf("tenant cardinality %d exceeds cap 9: %v", len(perTenantReq), perTenantReq)
				return
			}
			total := 0.0
			for _, v := range perTenantReq {
				total += v
			}
			if total < lastTotal {
				t.Errorf("olap_requests_total went backwards: %v -> %v", lastTotal, total)
				return
			}
			lastTotal = total
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	<-scraped
	if t.Failed() {
		return
	}

	// Quiesced: exact reconciliation per label, all labels assigned,
	// overflow recorded.
	samples := mustScrape(t, srv)
	req := sumByTenant(samples, "olap_requests_total")
	resps := sumByTenant(samples, "olap_responses_total")
	grand := 0.0
	for tenant, n := range req {
		grand += n
		if resps[tenant] != n {
			t.Errorf("tenant %q: requests %v != sum of responses %v", tenant, n, resps[tenant])
		}
	}
	if grand != tenants*perTenant {
		t.Errorf("total requests = %v, want %d", grand, tenants*perTenant)
	}
	if req[OtherTenantLabel] == 0 {
		t.Error("no traffic folded into the _other label despite 50 tenants against cap 8")
	}
	for _, smp := range samples {
		switch smp.name {
		case "olap_tenant_labels":
			if smp.value != 9 {
				t.Errorf("olap_tenant_labels = %v, want 9", smp.value)
			}
		case "olap_tenant_label_overflow_total":
			if smp.value == 0 {
				t.Error("olap_tenant_label_overflow_total = 0, want > 0")
			}
		case "olap_slo_error_budget_burn":
			if smp.labels["tenant"] != "t00" {
				t.Errorf("SLO burn series for unexpected tenant %q", smp.labels["tenant"])
			}
		}
	}
}

// TestMetricsGolden pins the serving-layer exposition byte-for-byte:
// deterministic traffic billed directly to the funnel counters must
// render exactly the committed document. Catches accidental renames,
// reordering, or type changes that would break dashboards silently.
// Regenerate with: go test ./internal/serve/ -run TestMetricsGolden -update
func TestMetricsGolden(t *testing.T) {
	db := usersDB(t)
	s := NewServer(db, Config{
		MaxTenantLabels: 4,
		SLOs: map[string]SLO{
			"acme": {Availability: 0.99, P99: 250 * time.Millisecond},
		},
	})
	// Deterministic traffic: bill outcomes straight into the funnel.
	_, acme := s.metrics.tenant("acme")
	acme.requests.Add(4)
	acme.countResponse("ok", 10*time.Millisecond)
	acme.countResponse("ok", 20*time.Millisecond)
	acme.countResponse("timeout", 40*time.Millisecond)
	acme.countResponse("internal", 80*time.Millisecond)
	_, beta := s.metrics.tenant("beta")
	beta.requests.Add(1)
	beta.countResponse("query", 5*time.Millisecond)

	p := obs.NewPromWriter()
	s.promCollect(p, s.Stats())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	got := p.String()
	if err := obs.ValidateExposition([]byte(got)); err != nil {
		t.Fatalf("golden document is itself invalid: %v", err)
	}

	goldenPath := filepath.Join("testdata", "metrics_golden.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden (regenerate with -update if intended):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParseSLOs(t *testing.T) {
	slos, err := ParseSLOs("default:avail=0.99,p99=250ms; premium : avail=0.999")
	if err != nil {
		t.Fatal(err)
	}
	if len(slos) != 2 {
		t.Fatalf("parsed %d SLOs, want 2", len(slos))
	}
	if s := slos["default"]; s.Availability != 0.99 || s.P99 != 250*time.Millisecond {
		t.Errorf("default = %+v", s)
	}
	if s := slos["premium"]; s.Availability != 0.999 || s.P99 != 0 {
		t.Errorf("premium = %+v", s)
	}
	if slos, err := ParseSLOs(""); err != nil || len(slos) != 0 {
		t.Errorf("empty spec: %v %v", slos, err)
	}
	for _, bad := range []string{
		"noobjectives",            // no colon
		"t:",                      // no objectives
		"t:avail=1.5",             // out of range
		"t:avail=0",               // out of range
		"t:p99=-5ms",              // negative
		"t:p99=zz",                // unparsable
		"t:latency=5ms",           // unknown key
		"t:avail",                 // no value
		"t:avail=0.9;t:avail=0.8", // duplicate tenant
	} {
		if _, err := ParseSLOs(bad); err == nil {
			t.Errorf("ParseSLOs(%q) accepted", bad)
		}
	}
}

func TestEvalSLOBurn(t *testing.T) {
	tm := newTenantMetrics()
	// 8 ok + 1 client-attributed error + 1 server-attributed error out
	// of 10: availability 0.9 (the query error does not burn budget).
	tm.requests.Add(10)
	for i := 0; i < 8; i++ {
		tm.countResponse("ok", time.Millisecond)
	}
	tm.countResponse("query", time.Millisecond)    // client's fault
	tm.countResponse("internal", time.Millisecond) // server's fault

	rep := evalSLO("t", SLO{Availability: 0.95}, tm)
	if rep.requests != 10 || rep.failures != 1 {
		t.Fatalf("requests=%d failures=%d, want 10/1", rep.requests, rep.failures)
	}
	if rep.availability != 0.9 {
		t.Fatalf("availability = %v, want 0.9", rep.availability)
	}
	// Burn: (1-0.9)/(1-0.95) = 2 — spending budget twice as fast as the
	// objective allows.
	if rep.burn < 1.99 || rep.burn > 2.01 {
		t.Fatalf("burn = %v, want 2.0", rep.burn)
	}

	// No traffic: availability 1, burn 0 — an idle tenant never pages.
	idle := evalSLO("idle", SLO{Availability: 0.99}, newTenantMetrics())
	if idle.availability != 1 || idle.burn != 0 {
		t.Fatalf("idle report = %+v", idle)
	}
}
