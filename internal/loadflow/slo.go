package loadflow

import (
	"fmt"
	"time"
)

// SLOSpec is one tenant's objective declared in a scenario's "slo"
// list. The driver evaluates it against the run's typed-outcome
// accounting after the steps finish — the client-side twin of the
// server's /metrics burn gauges, so a scenario can fail CI when the
// server's error budget burns too fast.
type SLOSpec struct {
	// Tenant names the tenant the objective applies to (steps whose
	// effective tenant matches are aggregated).
	Tenant string `json:"tenant"`
	// Availability is the target fraction of requests free of
	// server-attributed failure, in (0,1).
	Availability float64 `json:"availability"`
	// P99 bounds the 99th-percentile latency of successful requests
	// (0 = no latency objective).
	P99 Duration `json:"p99"`
	// MaxBurn is the error-budget burn rate above which the objective
	// is violated (default 1.0 — burning faster than the budget allows).
	MaxBurn float64 `json:"max_burn"`
}

// SLOOutcome is one objective evaluated against a finished run.
type SLOOutcome struct {
	Tenant       string        `json:"tenant"`
	Requests     int64         `json:"requests"`
	Failures     int64         `json:"failures"`
	Availability float64       `json:"availability"`
	Burn         float64       `json:"burn"`
	P99          time.Duration `json:"p99_ns"`
	// Violations holds one human-readable line per breached objective;
	// empty means the SLO held.
	Violations []string `json:"violations,omitempty"`
}

// EvaluateSLOs checks every declared objective against the run.
// failureKinds lists the taxonomy kinds billed against availability
// (serve.ServerFailureKinds, injected as data to keep loadflow free of
// a serve dependency). Burn is observed error rate over allowed error
// rate. The p99 check is conservative across steps: the worst step's
// p99 must meet the bound.
func EvaluateSLOs(sc *Scenario, res *Result, failureKinds []string) []SLOOutcome {
	failing := map[string]bool{}
	for _, k := range failureKinds {
		failing[k] = true
	}
	var out []SLOOutcome
	for _, spec := range sc.SLOs {
		o := SLOOutcome{Tenant: spec.Tenant, Availability: 1}
		for i, sr := range res.Steps {
			if i >= len(sc.Steps) || effectiveTenant(sc, &sc.Steps[i]) != spec.Tenant {
				continue
			}
			o.Requests += sr.OK
			for kind, n := range sr.ByKind {
				o.Requests += n
				if failing[kind] {
					o.Failures += n
				}
			}
			if p99 := time.Duration(sr.Latency.P99); p99 > o.P99 {
				o.P99 = p99
			}
		}
		if o.Requests > 0 {
			o.Availability = 1 - float64(o.Failures)/float64(o.Requests)
		}
		o.Burn = (1 - o.Availability) / (1 - spec.Availability)
		maxBurn := spec.MaxBurn
		if maxBurn <= 0 {
			maxBurn = 1
		}
		if o.Burn > maxBurn {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"tenant %q: error-budget burn %.2f > %.2f (availability %.4f vs target %.4f, %d/%d server-attributed failures)",
				spec.Tenant, o.Burn, maxBurn, o.Availability, spec.Availability, o.Failures, o.Requests))
		}
		if spec.P99 > 0 && o.P99 > time.Duration(spec.P99) {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"tenant %q: p99 %v > objective %v", spec.Tenant, o.P99, spec.P99))
		}
		out = append(out, o)
	}
	return out
}

// effectiveTenant resolves the tenant a step's requests are billed to,
// mirroring the server's default-tenant rule.
func effectiveTenant(sc *Scenario, st *Step) string {
	if st.Tenant != "" {
		return st.Tenant
	}
	if sc.Tenant != "" {
		return sc.Tenant
	}
	return "default"
}
