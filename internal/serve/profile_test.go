package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs/profile"
)

// profiledServer wires a server to a live profiler and recorder the
// way olapd does: ring under a temp root, incidents beneath it. cfg
// supplies everything else.
func profiledServer(t *testing.T, cfg Config) (*Server, *profile.Profiler, *profile.Recorder) {
	t.Helper()
	root := t.TempDir()
	p, err := profile.New(profile.Config{Dir: root, Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	rec, err := profile.NewRecorder(profile.RecorderConfig{
		Dir:         filepath.Join(root, profile.IncidentsDirName),
		MinInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rec.Close() })
	db := usersDB(t)
	db.EnableObservability(gmdj.ObsConfig{})
	cfg.Profiler, cfg.Recorder = p, rec
	return NewServer(db, cfg), p, rec
}

func TestProfilesIndexAndForcedIncident(t *testing.T) {
	s, p, _ := profiledServer(t, Config{Admin: true})
	if _, err := p.CaptureNow(0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// A query gives the slowlog and live registry something to hold.
	if resp, raw := post(t, srv, "acme", map[string]any{
		"sql": `SELECT name FROM users WHERE score > 15`,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, raw)
	}

	resp, err := http.Get(srv.URL + "/debug/olap/profiles")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("profiles index status %d: %s", resp.StatusCode, raw)
	}
	var idx struct {
		Ring    []profile.FileInfo `json:"ring"`
		Bundles []string           `json:"bundles"`
	}
	if err := json.Unmarshal(raw, &idx); err != nil {
		t.Fatalf("index not JSON: %v\n%s", err, raw)
	}
	if len(idx.Ring) == 0 {
		t.Fatalf("index lists no ring files: %s", raw)
	}

	// Ring files download through the index handler.
	name := ""
	for _, fi := range idx.Ring {
		if strings.HasPrefix(fi.Name, "heap-") {
			name = fi.Name
		}
	}
	if name == "" {
		t.Fatalf("no heap capture in ring: %v", idx.Ring)
	}
	resp, err = http.Get(srv.URL + "/debug/olap/profiles/" + name)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("ring download status %d, %d bytes", resp.StatusCode, len(body))
	}
	if _, err := profile.ParseProfile(body); err != nil {
		t.Fatalf("downloaded ring profile unparseable: %v", err)
	}

	// Forcing an incident writes one validated, self-contained bundle. The
	// ring holds no CPU capture, so the bundle samples a CPU window now:
	// acme queries keep running until the POST returns, so that the window
	// has tenant-labeled work to catch, not only an idle server.
	ctx, stopLoad := context.WithCancel(context.Background())
	var load sync.WaitGroup
	load.Add(1)
	go func() {
		defer load.Done()
		q, _ := json.Marshal(map[string]any{"sql": `SELECT name FROM users WHERE score > 15`})
		for ctx.Err() == nil {
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/query", bytes.NewReader(q))
			req.Header.Set(TenantHeader, "acme")
			resp, err := srv.Client().Do(req)
			if err != nil {
				return // canceled: the POST has returned
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("load query status %d", resp.StatusCode)
				return
			}
		}
	}()
	resp, err = http.Post(srv.URL+"/debug/olap/incident?reason=test", "", nil)
	stopLoad()
	load.Wait()
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var forced struct {
		Written bool   `json:"written"`
		Bundle  string `json:"bundle"`
	}
	if err := json.Unmarshal(raw, &forced); err != nil || !forced.Written {
		t.Fatalf("forced incident: %s (err %v)", raw, err)
	}
	required := []string{
		"metrics.prom", "slowlog.json", "trace.json", "config.json",
		"goroutines.txt", "heap.pprof", "goroutine.pprof", "mutex.pprof", "cpu.pprof",
	}
	if err := profile.ValidateBundle(forced.Bundle, required); err != nil {
		t.Fatalf("forced bundle invalid: %v", err)
	}
	if err := profile.CheckCPULabels(forced.Bundle, []string{profile.LabelTenant}); err != nil {
		t.Fatalf("CPU label check: %v", err)
	}
	// CheckCPULabels passes an idle window vacuously; this one had load.
	cpu, err := os.ReadFile(filepath.Join(forced.Bundle, "cpu.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	if prof, err := profile.ParseProfile(cpu); err != nil || !prof.HasLabelKey(profile.LabelTenant) {
		t.Fatalf("cpu.pprof has no sample labeled %q (err %v)", profile.LabelTenant, err)
	}

	// Second POST inside the rate-limit window is suppressed.
	resp, err = http.Post(srv.URL+"/debug/olap/incident", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(raw, &forced); err != nil || forced.Written {
		t.Fatalf("rate limit did not hold: %s (err %v)", raw, err)
	}

	// GET is rejected.
	resp, err = http.Get(srv.URL + "/debug/olap/incident")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /debug/olap/incident status %d; want 405", resp.StatusCode)
	}
}

// TestMetricsIncludeProfilingFamilies checks the new gated families
// appear on /metrics when a profiler and recorder are attached (the
// golden exposition test pins the families' absence without them).
func TestMetricsIncludeProfilingFamilies(t *testing.T) {
	s, p, rec := profiledServer(t, Config{Admin: true})
	if _, err := p.CaptureNow(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.TriggerSync(profile.TriggerManual, "metrics test"); !ok {
		t.Fatal("bundle not written")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, fam := range []string{
		"olap_profiles_captured_total",
		"olap_profile_errors_total",
		"olap_profile_ring_bytes",
		"olap_incident_bundles_total",
		"olap_incident_triggers_total",
		"olap_incident_suppressed_total",
	} {
		if !strings.Contains(text, "# TYPE "+fam) {
			t.Errorf("/metrics lacks family %s", fam)
		}
	}
	if !strings.Contains(text, `olap_profiles_captured_total{kind="heap"}`) {
		t.Errorf("heap capture not counted:\n%s", grepLines(text, "olap_profiles_captured_total"))
	}
	if !strings.Contains(text, "olap_incident_bundles_total 1") {
		t.Errorf("bundle not counted:\n%s", grepLines(text, "olap_incident"))
	}
}

func grepLines(text, needle string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestServeEventLabels drives one server through every serving-layer
// event a test can provoke — a queued and a shed request, a profile
// capture, an incident bundle, a drain that has to hard-cancel — and
// pins olapd's gmdj_engine_events_total label set: the DB's own
// events plus the serve.* and profile.* ones the server folds in (the
// list was recorded at the commit before the process-global registry
// went). Each folded event must equal the typed family reading the
// same field.
func TestServeEventLabels(t *testing.T) {
	for _, name := range []string{"GMDJ_MEM", "GMDJ_DATA_DIR"} {
		t.Setenv(name, "") // their owners' events are pinned in the root package
	}
	// Slow scans hold the tenant's only slot while later requests queue.
	t.Setenv(govern.EnvFaults, "exec.scan=delay:300ms")
	s, p, rec := profiledServer(t, Config{
		Tenants: map[string]Quota{"small": {MaxInFlight: 1, Admission: 100 * time.Millisecond}},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	if _, err := p.CaptureNow(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.TriggerSync(profile.TriggerManual, "event labels"); !ok {
		t.Fatal("bundle not written")
	}
	body := map[string]any{"sql": "SELECT name FROM users"}
	var wg sync.WaitGroup
	hold := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			post(t, srv, "small", body)
		}()
		waitFor(t, "a query in flight", func() bool { return s.InFlight() > 0 })
	}
	hold()
	if resp, raw := post(t, srv, "small", body); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request on a full tenant: status %d: %s", resp.StatusCode, raw)
	}
	wg.Wait()
	hold()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	events := map[string]float64{}
	typed := map[string]float64{}
	for _, smp := range mustScrape(t, srv) {
		if smp.name == "gmdj_engine_events_total" {
			events[smp.labels["event"]] = smp.value
		} else if _, isHist := smp.labels["le"]; !isHist {
			typed[smp.name] += smp.value // tenant and kind series sum
		}
	}
	var got []string
	for ev := range events {
		got = append(got, ev)
	}
	sort.Strings(got)
	want := []string{
		"errors.canceled", "faults.injected",
		"plancache.hit", "plancache.miss",
		"profile.bundles", "profile.captures",
		"queries.gmdj-opt", "rows_scanned",
		"serve.drains", "serve.hard_cancels", "serve.queued", "serve.shed",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("event labels drifted:\n got %v\nwant %v", got, want)
	}
	for ev, fam := range map[string]string{
		"serve.hard_cancels": "olap_hard_cancels_total",
		"serve.shed":         "olap_tenant_shed_total",
		"profile.captures":   "olap_profiles_captured_total",
		"profile.bundles":    "olap_incident_bundles_total",
		"profile.errors":     "olap_profile_errors_total",
	} {
		if events[ev] != typed[fam] {
			t.Errorf("event %s = %v but %s = %v", ev, events[ev], fam, typed[fam])
		}
	}
}
