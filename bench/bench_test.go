package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testScale runs every workload at a hundredth of its size, so the
// whole file stays within a few seconds.
const testScale = 0.01

func testConfig(t *testing.T, workload string, trace int) config {
	t.Helper()
	return config{workload: workload, seed: 1, seconds: 0.05, trace: trace, scale: testScale,
		outDir: t.TempDir(), log: io.Discard}
}

// Every workload, timed and traced: the oracle passes, every declared
// metric is reported, the trace loads and its spans reconcile.
func TestWorkloadsAtSmallScale(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			rec, err := runWorkload(testConfig(t, name, 0))
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("timed run: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, m := range endToEnd {
				v, ok := rec.Metrics[m.name]
				if !ok || v.Unit != m.unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v (present %v), want a positive value in %s", m.name, v, ok, m.unit)
				}
			}
			if len(rec.Metrics) != len(endToEnd) {
				t.Errorf("timed run reports %d metrics, want exactly the %d end-to-end ones", len(rec.Metrics), len(endToEnd))
			}

			cfg := testConfig(t, name, 1)
			rec, err = runWorkload(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
				t.Fatalf("traced pass: correct=%v attempted=%d failed=%d", rec.Correct, rec.Attempted, rec.Failed)
			}
			for _, m := range perLayer {
				v, ok := rec.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v (present %v)", m.name, v, ok)
				}
			}
			if len(rec.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want exactly the %d per-layer ones", len(rec.Metrics), len(perLayer))
			}
			if u := rec.Metrics["trace.unattributed_frac"].Value; u < 0 || u > 0.15 {
				t.Errorf("trace.unattributed_frac = %.3f, want within [0, 0.15]", u)
			}
			if rec.Counts["queries"] == 0 {
				t.Error("traced pass replayed no query")
			}
			checkLayersReached(t, name, rec)
			checkTraceFile(t, filepath.Join(cfg.outDir, name+".trace.json"))
		})
	}
}

// checkLayersReached asserts each workload exercises the layers it was
// built for and leaves the others alone.
func checkLayersReached(t *testing.T, name string, rec *record) {
	t.Helper()
	val := func(m string) float64 { return rec.Metrics[m].Value }
	if spilled := val("spill.partitions"); (name == "spill_bound") != (spilled > 0) {
		t.Errorf("spill.partitions = %g", spilled)
	}
	if name == "spill_bound" && val("spill.partitions") < 2 {
		t.Errorf("spill.partitions = %g per query, want at least 2", val("spill.partitions"))
	}
	for _, m := range []string{"storage.checkpoint_ms", "storage.recover_ms", "storage.decode_ms", "storage.bytes_written_per_user_byte", "storage.bytes_on_disk_per_user_byte"} {
		if (name == "durable_mix") != (val(m) > 0) {
			t.Errorf("%s = %g", m, val(m))
		}
	}
	for _, m := range []string{"serve.handler_us", "serve.http_us"} {
		if name != "serve_small" && val(m) != 0 {
			t.Errorf("%s = %g outside serve_small", m, val(m))
		}
	}
	if val("gmdj.eval_ms") <= 0 {
		t.Errorf("gmdj.eval_ms = %g: no GMDJ was evaluated", val("gmdj.eval_ms"))
	}
	if name == "theta_complete" && val("gmdj.completed_ratio") <= 0 {
		t.Errorf("gmdj.completed_ratio = %g: completion retired no base tuple", val("gmdj.completed_ratio"))
	}
	if name == "durable_mix" {
		// The key conjunct prunes in the outer block and, today, not in
		// the inner one; either way the figure is recorded per shape.
		if _, ok := rec.Info["blocks_pruned_ratio.range_1"]; !ok {
			t.Error("no per-shape pruning ratio recorded")
		}
	}
}

// checkTraceFile asserts the file is Chrome trace JSON whose child
// spans lie inside their parents.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Span   int  `json:"span"`
				Parent *int `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if tr.DisplayTimeUnit == "" || len(tr.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v is not a complete event", e)
		}
		if e.Args.Parent != nil {
			p := tr.TraceEvents[*e.Args.Parent]
			if e.Ts < p.Ts || e.Ts+e.Dur > p.Ts+p.Dur+0.002 { // both ends are rounded to the microsecond
				t.Fatalf("span %s [%g,+%g] leaves its parent %s [%g,+%g]", e.Name, e.Ts, e.Dur, p.Name, p.Ts, p.Dur)
			}
		}
	}
}

func TestRecorderSelfTimeReconciles(t *testing.T) {
	r := newRecorder()
	root := r.begin("db.query", -1, 0)
	a := r.begin("exec.scan", root, 0)
	r.end(a)
	b := r.begin("gmdj.eval", root, 0)
	c := r.begin("spill.write", b, 0)
	r.end(c)
	r.end(b)
	r.end(root)
	// Overwrite the clock readings so the arithmetic is exact.
	r.spans[root].start, r.spans[root].end = 0, 100
	r.spans[a].start, r.spans[a].end = 5, 25
	r.spans[b].start, r.spans[b].end = 30, 90
	r.spans[c].start, r.spans[c].end = 40, 50
	layers, rest := r.layerTimes(root)
	if layers["exec"] != 20 || layers["gmdj"] != 50 || layers["spill"] != 10 || rest != 20 {
		t.Fatalf("layers %v unattributed %v, want exec 20 gmdj 50 spill 10 and 20 unattributed", layers, rest)
	}
	var sum int64 = int64(rest)
	for _, d := range layers {
		sum += int64(d)
	}
	if sum != int64(r.spans[root].dur()) {
		t.Fatalf("self times sum to %d, parent lasted %d", sum, r.spans[root].dur())
	}
}

// The operation sequence is a function of the seed alone.
func TestSequenceDependsOnSeedOnly(t *testing.T) {
	hash := func(name string, seed uint64) string {
		w, err := newWorkload(name, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.prepare(seed, testScale); err != nil {
			t.Fatal(err)
		}
		return sequenceHash(w, 8)
	}
	for _, name := range workloadNames {
		a, again, b := hash(name, 7), hash(name, 7), hash(name, 8)
		if a != again {
			t.Errorf("%s: seed 7 gave %s then %s", name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence %s", name, a)
		}
	}
}

// spill_bound refuses to run when its limit no longer forces a spill.
func TestSpillBoundMustSpill(t *testing.T) {
	w := &tpcrWorkload{wname: "spill_bound", customers: 50_000, orders: 150_000, memLimit: 1 << 40}
	if err := w.prepare(1, testScale); err != nil {
		t.Fatal(err)
	}
	s, err := w.open(t.TempDir())
	if err == nil {
		s.close()
		t.Fatal("set-up accepted a limit under which nothing spills")
	}
	if !strings.Contains(err.Error(), "partitions spilled") {
		t.Fatalf("set-up failed for another reason: %v", err)
	}
}

// serve_small's mix hits the plan cache on four requests in five.
func TestServeSmallHitRatio(t *testing.T) {
	w := &serveWorkload{}
	if err := w.prepare(1, testScale); err != nil {
		t.Fatal(err)
	}
	s, err := w.open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	before := s.counters()
	m := runTimed(w, s, 0.3)
	after := s.counters()
	if m.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", m.failed, m.attempted, m.firstErr)
	}
	hits, misses := float64(after.planHits-before.planHits), float64(after.planMisses-before.planMisses)
	if got := hits / (hits + misses); math.Abs(got-0.8) > 0.02 {
		t.Fatalf("plan-cache hit ratio %.3f over %d requests, want 0.8", got, m.attempted)
	}
}

func TestDigestIgnoresOrderAndNumberForm(t *testing.T) {
	a := digest([][]any{{int64(1), "x", 2.5}, {int64(2), nil, 3.0}})
	b := digest([][]any{{json.Number("2"), nil, json.Number("3")}, {json.Number("1"), "x", json.Number("2.5")}})
	if a != b {
		t.Fatalf("library rows digest to %s, the same rows from JSON in another order to %s", a, b)
	}
	if c := digest([][]any{{int64(1), "x", 2.5}, {int64(2), nil, 3.5}}); c == a {
		t.Fatal("a changed cell left the digest unchanged")
	}
	if d := digest([][]any{{int64(1), "x", 2.5}}); d == a {
		t.Fatal("a missing row left the digest unchanged")
	}
}

func TestRefusesGMDJEnvironment(t *testing.T) {
	if err := checkEnv(); err != nil {
		t.Skipf("environment already carries a GMDJ_ variable: %v", err)
	}
	t.Setenv("GMDJ_PARALLEL", "1")
	err := checkEnv()
	if err == nil || !strings.Contains(err.Error(), "GMDJ_PARALLEL") {
		t.Fatalf("checkEnv = %v, want a refusal naming GMDJ_PARALLEL", err)
	}
	if code := runMain([]string{"-workload", "theta_complete", "-scale", "0.01", "-seconds", "0.01"}); code != 2 {
		t.Fatalf("run under GMDJ_PARALLEL exited %d, want 2", code)
	}
}

// iqrShare must agree with Python's statistics.quantiles(xs, n=4),
// which the acceptance check uses.
func TestIQRShareMatchesPythonQuantiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quantiles: 2.75, 5.5, 8.25
	if got := iqrShare(xs); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("iqrShare = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := iqrShare([]float64{100, 102}); math.Abs(got-(102.5-99.5)/101) > 1e-12 { // quantiles extrapolate: 99.5, 101, 102.5
		t.Fatalf("iqrShare of two values = %v", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{{39, 0, false}, {40, 75, true}, {100, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true}} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// BENCHMARK.json and the code name the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 || len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bj.RunSeconds, bj.Paths)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end metric %s: bound %g, better %q", m.Name, m.Bound, m.Better)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s [%s] in BENCHMARK.json and %s [%s] in the code", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
