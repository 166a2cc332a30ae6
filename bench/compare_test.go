package main

import (
	"bytes"
	"strings"
	"testing"
)

func testSpec() *spec {
	sp := &spec{}
	add := func(name, unit, better string, bound float64) {
		sp.EndToEnd = append(sp.EndToEnd, struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		}{name, unit, better, bound})
	}
	add("query_p50_ms", "ms", "lower", 0.10)
	add("queries_per_s", "1/s", "higher", 0.10)
	return sp
}

// runs builds one side of a comparison: one record per p50 value, with
// throughput its reciprocal.
func runs(workload string, env stamp, p50s ...float64) []record {
	var out []record
	for i, v := range p50s {
		st := env
		st.Seed = uint64(i + 1)
		st.SeqHash = "seq"
		out = append(out, record{Workload: workload, Stamp: st, Correct: true, Attempted: 100,
			Metrics: map[string]metricValue{"query_p50_ms": {v, "ms"}, "queries_per_s": {1000 / v, "1/s"}}})
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	env := stamp{Nproc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOGC: "100", Clients: 1, Seconds: 10, Scale: 1}
	steady := []float64{100, 101, 99, 100.5, 99.5}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	cases := []struct {
		name     string
		b        []float64
		p50, qps string
		code     int
	}{
		{"same", scaled(1.0), "within bound", "within bound", 0},
		{"five percent slower", scaled(1.05), "within bound", "within bound", 0},
		{"twenty percent slower", scaled(1.2), "worse", "worse", 1},
		{"twenty percent faster", scaled(0.8), "better", "better", 0},
		{"noisy", []float64{70, 100, 130, 160, 85}, "unresolved", "unresolved", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			code := compareRecords(testSpec(), runs("hash_scan", env, steady...), runs("hash_scan", env, c.b...), &out)
			if code != c.code {
				t.Errorf("exit code %d, want %d\n%s", code, c.code, out.String())
			}
			for metric, want := range map[string]string{"query_p50_ms": c.p50, "queries_per_s": c.qps} {
				line := lineWith(out.String(), metric)
				if !strings.HasSuffix(line, want) {
					t.Errorf("%s row ends %q, want verdict %q", metric, line, want)
				}
				if !strings.Contains(line, "(of ") {
					t.Errorf("%s row gives its ratio without a base: %q", metric, line)
				}
			}
		})
	}
}

func lineWith(text, needle string) string {
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, needle) {
			return strings.TrimSpace(l)
		}
	}
	return ""
}

func TestCompareRefusesMismatches(t *testing.T) {
	env := stamp{Nproc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOGC: "100", Clients: 1, Seconds: 10, Scale: 1}
	a := runs("hash_scan", env, 100, 101)

	other := env
	other.GOMAXPROCS = 4
	var out bytes.Buffer
	if code := compareRecords(testSpec(), a, runs("hash_scan", other, 100, 101), &out); code != 2 || !strings.Contains(out.String(), "environments differ") {
		t.Errorf("different GOMAXPROCS: exit %d\n%s", code, out.String())
	}

	b := runs("hash_scan", env, 100, 101)
	b[0].Stamp.SeqHash = "another"
	out.Reset()
	if code := compareRecords(testSpec(), a, b, &out); code != 2 || !strings.Contains(out.String(), "operation sequences differ") {
		t.Errorf("different sequence: exit %d\n%s", code, out.String())
	}
}

func TestCompareFailuresAndCounts(t *testing.T) {
	env := stamp{Nproc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", GOGC: "100", Clients: 1, Seconds: 10, Scale: 1}
	a, b := runs("hash_scan", env, 100, 101), runs("hash_scan", env, 100, 101)
	b[1].Failed = 3
	var out bytes.Buffer
	if code := compareRecords(testSpec(), a, b, &out); code != 1 || !strings.HasSuffix(lineWith(out.String(), "ops_failed"), "worse") {
		t.Errorf("more failures on B: exit %d\n%s", code, out.String())
	}

	traced := func(probes int64, clients int) []record {
		st := env
		st.Seed, st.SeqHash, st.Clients = 1, "seq", clients
		return []record{{Workload: "hash_scan", Trace: 1, Stamp: st, Correct: true, Attempted: 40,
			Counts: map[string]int64{"gmdj.probes": probes, "queries": 40}}}
	}
	out.Reset()
	if code := compareRecords(testSpec(), traced(500, 1), traced(500, 1), &out); code != 0 {
		t.Errorf("identical counts: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(testSpec(), traced(500, 1), traced(501, 1), &out); code != 1 || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("one client, differing counts: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRecords(testSpec(), traced(500, 2), traced(501, 2), &out); code != 0 || !strings.Contains(out.String(), "500..500") {
		t.Errorf("several clients, differing counts: exit %d\n%s", code, out.String())
	}
}
