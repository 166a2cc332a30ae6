package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
)

func usersDB(t *testing.T) *gmdj.DB {
	t.Helper()
	db := gmdj.Open()
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("users",
		gmdj.Col("name", gmdj.String), gmdj.Col("ip", gmdj.String), gmdj.Col("score", gmdj.Int))
	db.MustInsert("users",
		[]any{"ann", "10.0.0.1", int64(10)},
		[]any{"bob", "10.0.0.2", int64(20)},
		[]any{"cat", "10.0.0.1", int64(30)},
	)
	return db
}

func post(t *testing.T, srv *httptest.Server, tenant string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func decodeErr(t *testing.T, raw []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(raw, &e); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, raw)
	}
	return e
}

func TestClassifyTaxonomy(t *testing.T) {
	cases := []struct {
		err       error
		kind      string
		exit      int
		status    int
		retryable bool
	}{
		{nil, "ok", 0, http.StatusOK, false},
		{govern.ErrTimeout, "timeout", 3, http.StatusGatewayTimeout, false},
		{govern.ErrCanceled, "canceled", 4, 499, false},
		{govern.ErrRowBudget, "row_budget", 5, http.StatusUnprocessableEntity, false},
		{govern.ErrMemBudget, "mem_budget", 6, http.StatusServiceUnavailable, true},
		{mem.ErrAdmissionTimeout, "admission_timeout", 9, http.StatusTooManyRequests, true},
		{mem.ErrPoolClosed, "closed", 10, http.StatusServiceUnavailable, false},
		{ErrDraining, "unavailable", 11, http.StatusServiceUnavailable, true},
		{govern.ErrInjected, "unavailable", 11, http.StatusServiceUnavailable, true},
		{govern.ErrInternal, "internal", 7, http.StatusInternalServerError, false},
		{gmdj.ErrSegmentCorrupt, "segment_corrupt", 13, http.StatusInternalServerError, false},
		{errors.New("parse error"), "query", 1, http.StatusBadRequest, false},
	}
	known := map[string]bool{}
	for _, k := range KnownKinds() {
		known[k] = true
	}
	for _, c := range cases {
		// Wrapping must not change the classification.
		err := c.err
		if err != nil {
			err = fmt.Errorf("outer: %w", err)
		}
		cl := Classify(err)
		if cl.Kind != c.kind || cl.ExitCode != c.exit || cl.HTTPStatus != c.status || cl.Retryable != c.retryable {
			t.Errorf("Classify(%v) = %+v, want {%s %d %d %v}", c.err, cl, c.kind, c.exit, c.status, c.retryable)
		}
		if !known[cl.Kind] {
			t.Errorf("Classify(%v) kind %q not in KnownKinds", c.err, cl.Kind)
		}
	}
}

// TestDesignErrorTable: the server's kinds are the engine's
// error table plus the three serving-only classes, and the copy of the
// table in DESIGN.md §11 says what the code says.
func TestDesignErrorTable(t *testing.T) {
	want := map[string]Class{classUsage.Kind: classUsage, classUnavailable.Kind: classUnavailable}
	for _, c := range gmdj.ErrorClasses() {
		if _, dup := want[c.Kind]; dup {
			t.Errorf("kind %q appears twice", c.Kind)
		}
		want[c.Kind] = c
	}
	kinds := KnownKinds()
	if len(kinds) != len(want)+1 {
		t.Errorf("KnownKinds() = %v, want ok and %d more", kinds, len(want))
	}
	for _, k := range kinds {
		if _, ok := want[k]; !ok && k != classOK.Kind {
			t.Errorf("KnownKinds() has %q, which no table produces", k)
		}
	}

	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(doc), "### Error/exit-code ↔ HTTP status mapping")
	section, _, _ = strings.Cut(section, "\n### ")
	got := map[string]Class{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(cells) != 5 {
			continue
		}
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		exit, err1 := strconv.Atoi(cells[2])
		status, err2 := strconv.Atoi(cells[3])
		if err1 != nil || err2 != nil {
			continue // the header and the rule under it
		}
		got[cells[0]] = Class{Kind: cells[0], ExitCode: exit, HTTPStatus: status, Retryable: cells[4] == "yes"}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DESIGN.md §11 table:\n%v\nthe code's:\n%v", got, want)
	}
}

func TestParseQuota(t *testing.T) {
	q, err := ParseQuota("inflight=8,mem=32MiB,admission=500ms")
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxInFlight != 8 || q.MemBytes != 32<<20 || q.Admission != 500*time.Millisecond {
		t.Fatalf("q = %+v", q)
	}
	// The memory ceiling folds into the in-flight cap.
	tight := Quota{MaxInFlight: 100, MemBytes: 3 * mem.DefaultQueryReserve}
	if got := tight.effectiveMax(); got != 3 {
		t.Fatalf("effectiveMax = %d, want 3", got)
	}
	for _, bad := range []string{"inflight=0", "inflight=x", "mem=zz", "admission=zz", "nope=1", "inflight"} {
		if _, err := ParseQuota(bad); err == nil {
			t.Errorf("ParseQuota(%q) accepted", bad)
		}
	}
	ts, err := ParseTenants("alice:inflight=8;bob:inflight=2,admission=100ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 || ts["alice"].MaxInFlight != 8 || ts["bob"].Admission != 100*time.Millisecond {
		t.Fatalf("tenants = %+v", ts)
	}
	if _, err := ParseTenants("noquota"); err == nil {
		t.Error("ParseTenants accepted entry without colon")
	}
}

// TestGateErrors holds what a gate adds to its mem.Queue (whose FIFO,
// timeout, cancel and close behaviour mem's queue tests cover): the
// tenant in each error text, cancellation mapped to govern.ErrCanceled,
// ErrDraining for a drain, and the TenantStats mapping.
func TestGateErrors(t *testing.T) {
	g := newGate("t", Quota{MaxInFlight: 1, Admission: 20 * time.Millisecond})
	if _, err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := g.Enter(context.Background())
	if want := `tenant "t": admission queue timed out after 20ms (1 in flight, cap 1)`; !errors.Is(err, mem.ErrAdmissionTimeout) || err.Error() != want || g.stats().Shed != 1 {
		t.Fatalf("timed-out Enter = %v, want %q counted as Shed", err, want)
	}
	g = newGate("t", Quota{MaxInFlight: 1, Admission: time.Minute})
	release, err := g.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Enter(ctx); !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("canceled Enter = %v, want ErrCanceled", err)
	}
	done := make(chan error, 1)
	go func() { _, err := g.Enter(context.Background()); done <- err }()
	for g.stats().Queued == 0 {
		time.Sleep(time.Millisecond)
	}
	g.close()
	if err := <-done; !errors.Is(err, ErrDraining) || err.Error() != `tenant "t": server draining: shed from admission queue` {
		t.Fatalf("drained waiter got %v", err)
	}
	if _, err := g.Enter(context.Background()); !errors.Is(err, ErrDraining) || err.Error() != `tenant "t": server draining` {
		t.Fatalf("Enter on closed gate = %v", err)
	}
	release()
	want := TenantStats{Tenant: "t", MaxInFlight: 1, PeakQueued: 1, Admitted: 1, Drained: 1, QueuedTotal: 2}
	if st := g.stats(); st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
}

func TestGateFIFOAndShed(t *testing.T) {
	g := newGate("t", Quota{MaxInFlight: 1, Admission: 80 * time.Millisecond})
	release, err := g.Enter(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Second entry sheds at the admission deadline with a typed error.
	start := time.Now()
	if _, err := g.Enter(context.Background()); !errors.Is(err, mem.ErrAdmissionTimeout) {
		t.Fatalf("queued Enter = %v, want ErrAdmissionTimeout", err)
	} else if time.Since(start) > 5*time.Second {
		t.Fatal("shed took far longer than the admission deadline")
	}
	// Context cancellation releases the queue slot with a typed error.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Enter(ctx)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-done; !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("canceled Enter = %v, want ErrCanceled", err)
	}
	// Releasing grants the next FIFO waiter.
	got := make(chan error, 1)
	go func() {
		r, err := g.Enter(context.Background())
		if err == nil {
			r()
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-got; err != nil {
		t.Fatalf("waiter after release: %v", err)
	}
	st := g.stats()
	if st.Shed != 1 || st.Admitted != 2 {
		t.Fatalf("stats = %+v, want Shed=1 Admitted=2", st)
	}
}

func TestGateCloseShedsWaiters(t *testing.T) {
	g := newGate("t", Quota{MaxInFlight: 1, Admission: 10 * time.Second})
	if _, err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := g.Enter(context.Background())
			errs <- err
		}()
	}
	// Wait until all are queued, then close.
	deadline := time.Now().Add(5 * time.Second)
	for g.stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d queued", g.stats().Queued)
		}
		time.Sleep(time.Millisecond)
	}
	g.close()
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrDraining) {
			t.Fatalf("drained waiter got %v, want ErrDraining", err)
		}
	}
	if _, err := g.Enter(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("Enter on closed gate = %v, want ErrDraining", err)
	}
}

func TestServeQueryOK(t *testing.T) {
	db := usersDB(t)
	s := NewServer(db, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, raw := post(t, srv, "", map[string]any{
		"sql": `SELECT name, score FROM users WHERE score > 15 ORDER BY score`,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 2 || len(qr.Rows) != 2 || qr.Rows[0][0] != "bob" {
		t.Fatalf("response = %+v", qr)
	}
	if qr.Tenant != DefaultTenant {
		t.Fatalf("tenant = %q", qr.Tenant)
	}

	// Parameterized path goes through a prepared statement; JSON floats
	// normalize to int64 for integer columns.
	resp, raw = post(t, srv, "alice", map[string]any{
		"sql":  `SELECT name FROM users WHERE ip = ? AND score > ?`,
		"args": []any{"10.0.0.1", 15},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("args status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || qr.Rows[0][0] != "cat" || qr.Tenant != "alice" {
		t.Fatalf("args response = %+v", qr)
	}
	// ... which compiles through the plan cache like any statement: the
	// same text again is a hit, not a second parse and rewrite.
	before := db.PlanCacheStats()
	post(t, srv, "alice", map[string]any{
		"sql":  `SELECT name FROM users WHERE ip = ? AND score > ?`,
		"args": []any{"10.0.0.2", 0},
	})
	if after := db.PlanCacheStats(); after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("second args request: plan cache %+v -> %+v, want one more hit", before, after)
	}
}

func TestServeUsageErrors(t *testing.T) {
	db := usersDB(t)
	s := NewServer(db, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Wrong method.
	resp, err := srv.Client().Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}

	for name, body := range map[string]any{
		"empty sql":    map[string]any{"sql": "  "},
		"bad strategy": map[string]any{"sql": "SELECT name FROM users", "strategy": "quantum"},
	} {
		resp, raw := post(t, srv, "", body)
		e := decodeErr(t, raw)
		if resp.StatusCode != http.StatusBadRequest || e.Kind != "usage" || e.ExitCode != 2 {
			t.Errorf("%s: status=%d body=%+v, want 400/usage/2", name, resp.StatusCode, e)
		}
	}

	// A failing query (unknown table) is the client's query at fault,
	// not a malformed request: kind "query", exit 1.
	resp2, raw := post(t, srv, "", map[string]any{"sql": "SELECT x FROM nope"})
	e := decodeErr(t, raw)
	if resp2.StatusCode != http.StatusBadRequest || e.Kind != "query" || e.ExitCode != 1 {
		t.Fatalf("unknown table: status=%d body=%+v", resp2.StatusCode, e)
	}
}

func TestServeFaultSites(t *testing.T) {
	db := usersDB(t)
	body := map[string]any{"sql": "SELECT name FROM users"}

	t.Run("accept error", func(t *testing.T) {
		s := NewServer(db, Config{Faults: govern.NewInjector(map[string]string{SiteAccept: "error"})})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp, raw := post(t, srv, "", body)
		e := decodeErr(t, raw)
		if resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "unavailable" || !e.Retryable {
			t.Fatalf("status=%d body=%+v, want 503/unavailable/retryable", resp.StatusCode, e)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("no Retry-After header on injected accept fault")
		}
	})

	t.Run("write error", func(t *testing.T) {
		s := NewServer(db, Config{Faults: govern.NewInjector(map[string]string{SiteWrite: "error"})})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp, raw := post(t, srv, "", body)
		e := decodeErr(t, raw)
		if resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "unavailable" {
			t.Fatalf("status=%d body=%+v, want 503/unavailable", resp.StatusCode, e)
		}
	})

	t.Run("accept panic recovered", func(t *testing.T) {
		s := NewServer(db, Config{Faults: govern.NewInjector(map[string]string{SiteAccept: "panic"})})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		resp, raw := post(t, srv, "", body)
		e := decodeErr(t, raw)
		if resp.StatusCode != http.StatusInternalServerError || e.Kind != "internal" || e.ExitCode != 7 {
			t.Fatalf("status=%d body=%+v, want 500/internal/7", resp.StatusCode, e)
		}
	})

	t.Run("accept error rate", func(t *testing.T) {
		// @2 faults every second request: out of 4, exactly 2 fail.
		s := NewServer(db, Config{Faults: govern.NewInjector(map[string]string{SiteAccept: "error@2"})})
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		var fails int
		for i := 0; i < 4; i++ {
			resp, _ := post(t, srv, "", body)
			if resp.StatusCode == http.StatusServiceUnavailable {
				fails++
			}
		}
		if fails != 2 {
			t.Fatalf("fails = %d, want 2 of 4 with error@2", fails)
		}
	})
}

func TestServeDrainRejects(t *testing.T) {
	db := usersDB(t)
	s := NewServer(db, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	s.StartDrain()
	resp, raw := post(t, srv, "", map[string]any{"sql": "SELECT name FROM users"})
	e := decodeErr(t, raw)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Kind != "unavailable" || e.ExitCode != 11 {
		t.Fatalf("status=%d body=%+v", resp.StatusCode, e)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on drain rejection")
	}

	hresp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable || h.State != "draining" {
		t.Fatalf("healthz = %d %+v", hresp.StatusCode, h)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain with nothing in flight: %v", err)
	}
}

func TestServeTenantQuotaShed(t *testing.T) {
	// exec.scan delay makes every query slow enough to hold its slot
	// while the second request queues and sheds.
	t.Setenv(govern.EnvFaults, "exec.scan=delay:400ms")
	db := usersDB(t)
	s := NewServer(db, Config{
		Tenants: map[string]Quota{
			"small": {MaxInFlight: 1, Admission: 50 * time.Millisecond},
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := map[string]any{"sql": "SELECT name FROM users"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, srv, "small", body)
	}()
	// Wait for the first query to hold the slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never started")
		}
		time.Sleep(time.Millisecond)
	}
	resp, raw := post(t, srv, "small", body)
	e := decodeErr(t, raw)
	if resp.StatusCode != http.StatusTooManyRequests || e.Kind != "admission_timeout" || e.ExitCode != 9 {
		t.Fatalf("status=%d body=%+v, want 429/admission_timeout/9", resp.StatusCode, e)
	}
	if resp.Header.Get("Retry-After") == "" || e.RetryAfterMS <= 0 {
		t.Fatalf("shed response lacks retry hints: header=%q body=%+v", resp.Header.Get("Retry-After"), e)
	}
	// Other tenants are unaffected by the saturated one.
	resp2, raw2 := post(t, srv, "big", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("other tenant status = %d: %s", resp2.StatusCode, raw2)
	}
	wg.Wait()
	var found bool
	for _, ts := range s.Stats().Tenants {
		if ts.Tenant == "small" {
			found = true
			if ts.Shed != 1 {
				t.Fatalf("small tenant stats = %+v, want Shed=1", ts)
			}
		}
	}
	if !found {
		t.Fatal("small tenant missing from stats")
	}
}

func TestServeDrainHardCancelsInFlight(t *testing.T) {
	// Queries that would run for 10s without intervention: drain's hard
	// phase must cancel them through their governor contexts.
	t.Setenv(govern.EnvFaults, "exec.scan=delay:10s")
	db := usersDB(t)
	s := NewServer(db, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const n = 4
	type result struct {
		status int
		body   errorResponse
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, raw := post(t, srv, "", map[string]any{"sql": "SELECT name FROM users"})
			results <- result{resp.StatusCode, decodeErr(t, raw)}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d queries in flight", s.InFlight(), n)
		}
		time.Sleep(time.Millisecond)
	}

	// A 100ms budget is far less than the 10s the queries would take:
	// the soft phase expires and the hard phase must fire.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("drain took %v; hard cancel did not fire", elapsed)
	}
	for i := 0; i < n; i++ {
		r := <-results
		if r.body.Kind != "canceled" {
			t.Fatalf("canceled query got kind %q (status %d), want canceled", r.body.Kind, r.status)
		}
		if r.status != 499 {
			t.Fatalf("canceled query status = %d, want 499", r.status)
		}
	}
	if s.InFlight() != 0 {
		t.Fatalf("in flight after drain = %d", s.InFlight())
	}
	if got := s.Stats().HardCanceled; got != n {
		t.Fatalf("hard canceled = %d, want %d", got, n)
	}
}

func TestServeTimeoutClamp(t *testing.T) {
	t.Setenv(govern.EnvFaults, "exec.scan=delay:5s")
	db := usersDB(t)
	s := NewServer(db, Config{MaxTimeout: 100 * time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// The client asks for 60s; MaxTimeout clamps it to 100ms and the
	// delayed scan times out with the typed taxonomy error.
	resp, raw := post(t, srv, "", map[string]any{
		"sql":        "SELECT name FROM users",
		"timeout_ms": 60000,
	})
	e := decodeErr(t, raw)
	if resp.StatusCode != http.StatusGatewayTimeout || e.Kind != "timeout" || e.ExitCode != 3 {
		t.Fatalf("status=%d body=%+v, want 504/timeout/3", resp.StatusCode, e)
	}
}

func TestServeAdminEndpoints(t *testing.T) {
	db := usersDB(t)
	db.EnableObservability(gmdj.ObsConfig{})
	s := NewServer(db, Config{Admin: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post(t, srv, "", map[string]any{"sql": "SELECT name FROM users"})
	for _, path := range []string{"/debug/serve", "/debug/olap/queries", "/debug/olap/hist", "/debug/olap/mem"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, resp.StatusCode)
		}
	}
	st := s.Stats()
	if st.Accepted < 1 || st.Completed < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if _, ok := st.Latency["http_ns.all"]; !ok {
		t.Fatalf("no http_ns.all histogram in %v", st.Latency)
	}

	// Without Admin, the debug surface is absent.
	s2 := NewServer(db, Config{})
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/debug/serve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/serve without -admin = %d, want 404", resp.StatusCode)
	}
}

func TestServeConcurrentStorm(t *testing.T) {
	// A miniature cancellation storm: concurrent clients, a fraction
	// aborting early, serve-site faults at a 1-in-4 rate. Every outcome
	// must be 200 or a typed error kind.
	db := usersDB(t)
	s := NewServer(db, Config{
		Faults: govern.NewInjector(map[string]string{SiteAccept: "error@4"}),
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	known := map[string]bool{}
	for _, k := range KnownKinds() {
		known[k] = true
	}
	const workers = 32
	var wg sync.WaitGroup
	bad := make(chan string, workers*8)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx := context.Background()
				var cancel context.CancelFunc
				if (w+i)%10 == 0 {
					ctx, cancel = context.WithTimeout(ctx, time.Millisecond)
				}
				raw, _ := json.Marshal(map[string]any{"sql": "SELECT name, score FROM users ORDER BY score"})
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/query", bytes.NewReader(raw))
				resp, err := srv.Client().Do(req)
				if cancel != nil {
					cancel()
				}
				if err != nil {
					// Client-side abort: the transport error is the
					// client's, not a server taxonomy violation.
					if strings.Contains(err.Error(), "context deadline exceeded") {
						continue
					}
					bad <- err.Error()
					continue
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					continue
				}
				var e errorResponse
				if json.Unmarshal(buf.Bytes(), &e) != nil || !known[e.Kind] {
					bad <- fmt.Sprintf("status %d body %s", resp.StatusCode, buf.String())
				}
			}
		}(w)
	}
	wg.Wait()
	close(bad)
	for b := range bad {
		t.Errorf("non-typed outcome: %s", b)
	}
}
