// Package loadflow is a declarative load/chaos scenario driver for the
// serving layer: scenarios are JSON documents describing weighted query
// mixes, concurrency ramps, client-abort storms, and per-step deadlines;
// the runner executes them against an olapd endpoint and reports typed
// outcome counts plus latency percentiles.
package loadflow

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// Scenario is one declarative load/chaos run: a named sequence of
// steps executed in order against one olapd endpoint.
type Scenario struct {
	// Name labels the run (and the BENCH figure).
	Name string `json:"name"`
	// Description is free documentation.
	Description string `json:"description"`
	// Target is the olapd base URL; a runner flag may override it.
	Target string `json:"target"`
	// Tenant is the default tenant for steps that don't set their own.
	Tenant string `json:"tenant"`
	// Seed feeds the deterministic per-worker PRNGs (default 1).
	Seed int64 `json:"seed"`
	// Steps run sequentially.
	Steps []Step `json:"steps"`
	// SLOs are per-tenant objectives asserted after the run (exit 4 in
	// the driver on violation).
	SLOs []SLOSpec `json:"slo"`
}

// Step is one load phase: a worker pool issuing a weighted query mix.
type Step struct {
	// Name labels the step in results and BENCH cells.
	Name string `json:"name"`
	// Concurrency is the worker-pool size (default 1).
	Concurrency int `json:"concurrency"`
	// Ramp staggers worker starts evenly across this duration (0 =
	// all at once — a spike).
	Ramp Duration `json:"ramp"`
	// Duration bounds the step's wall clock; workers stop issuing new
	// requests once it elapses. 0 = bounded by Requests only.
	Duration Duration `json:"duration"`
	// Requests caps the total requests issued across all workers.
	// 0 = bounded by Duration only. At least one bound must be set.
	Requests int64 `json:"requests"`
	// Timeout is the per-request timeout_ms sent to the server
	// (0 = server default).
	Timeout Duration `json:"timeout"`
	// Think pauses each worker between requests (0 = none).
	Think Duration `json:"think"`
	// AbortRate is the fraction of requests (0..1) the client abandons
	// — canceling the HTTP request after AbortAfter — to model
	// disconnecting clients.
	AbortRate float64 `json:"abort_rate"`
	// AbortAfter is how long an aborting client waits before hanging
	// up (default 1ms).
	AbortAfter Duration `json:"abort_after"`
	// Tenant overrides the scenario tenant for this step.
	Tenant string `json:"tenant"`
	// Queries is the weighted template mix (required, non-empty).
	Queries []QueryTemplate `json:"queries"`
}

// QueryTemplate is one weighted query in a step's mix. SQL may embed
// $RANDINT(lo,hi) and $PICK(a|b|c) placeholders, expanded per request
// from the worker's deterministic PRNG.
type QueryTemplate struct {
	SQL      string `json:"sql"`
	Weight   int    `json:"weight"` // relative selection weight (default 1)
	Strategy string `json:"strategy"`
	// TimeoutMS overrides the step timeout for this template (0 = step's).
	TimeoutMS int64 `json:"timeout_ms"`
}

// Duration is a time.Duration written in a scenario as a Go duration
// string such as "500ms".
type Duration time.Duration

// UnmarshalJSON decodes a duration string.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("want duration string like \"500ms\", got %s", b)
	}
	v, err := time.ParseDuration(s)
	*d = Duration(v)
	return err
}

// String formats d as time.Duration does.
func (d Duration) String() string { return time.Duration(d).String() }

// ParseScenario decodes a JSON scenario document and validates it.
// Unknown keys are rejected: a typo in a scenario must fail the run,
// not silently no-op.
func ParseScenario(src string) (*Scenario, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("loadflow: scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("loadflow: scenario: trailing data after the document")
	}
	return sc, sc.validate()
}

func (sc *Scenario) validate() error {
	if sc.Name == "" {
		return fmt.Errorf("loadflow: scenario has no name")
	}
	if len(sc.Steps) == 0 {
		return fmt.Errorf("loadflow: scenario %q has no steps", sc.Name)
	}
	for i := range sc.Steps {
		st := &sc.Steps[i]
		if st.Name == "" {
			st.Name = fmt.Sprintf("step%d", i+1)
		}
		if st.Concurrency <= 0 {
			st.Concurrency = 1
		}
		if st.Duration <= 0 && st.Requests <= 0 {
			return fmt.Errorf("loadflow: step %q has neither duration nor requests", st.Name)
		}
		if st.AbortRate < 0 || st.AbortRate > 1 {
			return fmt.Errorf("loadflow: step %q abort_rate %v outside [0,1]", st.Name, st.AbortRate)
		}
		if st.AbortRate > 0 && st.AbortAfter <= 0 {
			st.AbortAfter = Duration(time.Millisecond)
		}
		if len(st.Queries) == 0 {
			return fmt.Errorf("loadflow: step %q has no queries", st.Name)
		}
		for j := range st.Queries {
			q := &st.Queries[j]
			if q.SQL == "" {
				return fmt.Errorf("loadflow: step %q queries[%d] has no sql", st.Name, j)
			}
			if q.Weight <= 0 {
				q.Weight = 1
			}
		}
	}
	seen := map[string]bool{}
	for i := range sc.SLOs {
		spec := &sc.SLOs[i]
		if spec.Tenant == "" {
			return fmt.Errorf("loadflow: slo[%d] has no tenant", i)
		}
		if seen[spec.Tenant] {
			return fmt.Errorf("loadflow: slo: tenant %q declared twice", spec.Tenant)
		}
		seen[spec.Tenant] = true
		if spec.Availability <= 0 || spec.Availability >= 1 {
			return fmt.Errorf("loadflow: slo for %q: availability %v outside (0,1)", spec.Tenant, spec.Availability)
		}
		if spec.MaxBurn < 0 {
			return fmt.Errorf("loadflow: slo for %q: negative max_burn", spec.Tenant)
		}
	}
	return nil
}
