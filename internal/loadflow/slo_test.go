package loadflow

import (
	"strings"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/obs"
)

func TestScenarioSLOParsing(t *testing.T) {
	sc, err := ParseScenario(`{
  "name": "slo-demo",
  "tenant": "default",
  "steps": [{"name": "s1", "requests": 10, "queries": [{"sql": "SELECT 1"}]}],
  "slo": [
    {"tenant": "default", "availability": 0.99, "p99": "250ms"},
    {"tenant": "premium", "availability": 0.999, "max_burn": 2.0}
  ]
}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.SLOs) != 2 {
		t.Fatalf("parsed %d SLOs, want 2", len(sc.SLOs))
	}
	if s := sc.SLOs[0]; s.Tenant != "default" || s.Availability != 0.99 || s.P99 != Duration(250*time.Millisecond) || s.MaxBurn != 0 {
		t.Errorf("slo[0] = %+v", s)
	}
	if s := sc.SLOs[1]; s.Tenant != "premium" || s.MaxBurn != 2.0 {
		t.Errorf("slo[1] = %+v", s)
	}

	const steps = `"name": "x", "steps": [{"requests": 1, "queries": [{"sql": "SELECT 1"}]}]`
	for name, c := range map[string]struct{ slo, want string }{
		"no tenant":                 {`[{"availability": 0.9}]`, "has no tenant"},
		"availability out of range": {`[{"tenant": "t", "availability": 1.5}]`, "outside (0,1)"},
		"duplicate tenant":          {`[{"tenant": "t", "availability": 0.9}, {"tenant": "t", "availability": 0.8}]`, "declared twice"},
		"unknown key":               {`[{"tenant": "t", "availability": 0.9, "latency": "5ms"}]`, `unknown field "latency"`},
		"bad p99":                   {`[{"tenant": "t", "availability": 0.9, "p99": "fast"}]`, "invalid duration"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseScenario(`{` + steps + `, "slo": ` + c.slo + `}`); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

func TestEvaluateSLOs(t *testing.T) {
	// serve.ServerFailureKinds, inlined to keep the package decoupled.
	failureKinds := []string{"admission_timeout", "internal", "unavailable"}
	sc := &Scenario{
		Name:   "x",
		Tenant: "default",
		Steps: []Step{
			{Name: "main"},                        // billed to default
			{Name: "starved", Tenant: "starved"},  // its own tenant
			{Name: "overflow", Tenant: "default"}, // aggregates with main
		},
		SLOs: []SLOSpec{
			{Tenant: "default", Availability: 0.95, P99: Duration(50 * time.Millisecond)},
			{Tenant: "starved", Availability: 0.5, MaxBurn: 3},
			{Tenant: "idle", Availability: 0.99},
		},
	}
	res := &Result{Steps: []StepResult{
		// default, step 1: 90 ok, 6 internal (server), 4 query (client).
		{Name: "main", OK: 90,
			ByKind:  map[string]int64{"internal": 6, "query": 4},
			Latency: obs.HistSnapshot{P99: int64(40 * time.Millisecond)}},
		// starved: 5 ok, 5 shed — availability 0.5, burn 1.0 <= 3.
		{Name: "starved", OK: 5,
			ByKind: map[string]int64{"admission_timeout": 5}},
		// default, step 3: clean but slow — trips the p99 objective.
		{Name: "overflow", OK: 100,
			Latency: obs.HistSnapshot{P99: int64(80 * time.Millisecond)}},
	}}

	outs := EvaluateSLOs(sc, res, failureKinds)
	if len(outs) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(outs))
	}

	// default: 200 requests, 6 failures -> availability 0.97, burn
	// (1-0.97)/(1-0.95) = 0.6 — no availability breach, but the worst
	// step's p99 (80ms) breaks the 50ms objective.
	d := outs[0]
	if d.Tenant != "default" || d.Requests != 200 || d.Failures != 6 {
		t.Fatalf("default outcome = %+v", d)
	}
	if d.Burn < 0.59 || d.Burn > 0.61 {
		t.Errorf("default burn = %v, want 0.6", d.Burn)
	}
	if len(d.Violations) != 1 || !strings.Contains(d.Violations[0], "p99") {
		t.Errorf("default violations = %v, want exactly the p99 breach", d.Violations)
	}

	// starved: availability 0.5 exactly burns at 1.0, under max_burn 3.
	s := outs[1]
	if s.Requests != 10 || s.Failures != 5 || len(s.Violations) != 0 {
		t.Errorf("starved outcome = %+v, want no violations", s)
	}

	// idle tenant with no matching steps: availability 1, burn 0.
	i := outs[2]
	if i.Requests != 0 || i.Availability != 1 || i.Burn != 0 || len(i.Violations) != 0 {
		t.Errorf("idle outcome = %+v", i)
	}

	// Drop the availability floor for default below observed: the burn
	// violation must fire.
	sc.SLOs[0] = SLOSpec{Tenant: "default", Availability: 0.99}
	outs = EvaluateSLOs(sc, res, failureKinds)
	d = outs[0]
	if len(d.Violations) != 1 || !strings.Contains(d.Violations[0], "error-budget burn") {
		t.Errorf("tightened SLO violations = %v, want a burn breach", d.Violations)
	}
	if d.Burn < 2.9 || d.Burn > 3.1 { // (1-0.97)/(1-0.99) = 3
		t.Errorf("tightened burn = %v, want 3.0", d.Burn)
	}
}
