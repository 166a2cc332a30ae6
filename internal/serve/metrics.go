package serve

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olaplab/gmdj/internal/obs"
)

// Per-tenant request accounting behind /metrics. The cardinality
// problem is handled at the source: the first MaxTenantLabels distinct
// tenants each get their own label value, assigned first-come and
// never revoked (so each labeled series stays monotonic); every tenant
// beyond the cap is folded into the OtherTenantLabel series. A scrape
// therefore has a hard upper bound on series count no matter how many
// tenant names a hostile client invents.

// DefaultMaxTenantLabels bounds distinct tenant label values on
// /metrics when Config.MaxTenantLabels is unset.
const DefaultMaxTenantLabels = 32

// OtherTenantLabel is the fold-over label value for tenants beyond the
// cardinality cap.
const OtherTenantLabel = "_other"

// tenantMetrics is one label value's counters. The response counters
// are pre-allocated for every taxonomy kind so increments are
// lock-free and a scrape sees a stable kind set.
type tenantMetrics struct {
	requests  atomic.Int64
	responses map[string]*atomic.Int64
	duration  *obs.Histogram
}

func newTenantMetrics() *tenantMetrics {
	tm := &tenantMetrics{responses: map[string]*atomic.Int64{}, duration: obs.NewHistogram()}
	for _, k := range KnownKinds() {
		tm.responses[k] = &atomic.Int64{}
	}
	return tm
}

func (tm *tenantMetrics) countResponse(kind string, elapsed time.Duration) {
	c := tm.responses[kind]
	if c == nil {
		// A kind outside KnownKinds would be a taxonomy bug; bill it as
		// internal rather than dropping the sample (reconciliation —
		// requests == sum of responses — must survive bugs too).
		c = tm.responses["internal"]
	}
	c.Add(1)
	tm.duration.RecordDuration(elapsed)
}

// metricsRegistry maps tenant names onto bounded label values.
type metricsRegistry struct {
	max int

	mu       sync.Mutex
	byLabel  map[string]*tenantMetrics
	overflow atomic.Int64 // requests folded into OtherTenantLabel
}

func newMetricsRegistry(maxLabels int) *metricsRegistry {
	if maxLabels <= 0 {
		maxLabels = DefaultMaxTenantLabels
	}
	m := &metricsRegistry{max: maxLabels, byLabel: map[string]*tenantMetrics{}}
	// The fold-over series exists from the start (outside the cap).
	m.byLabel[OtherTenantLabel] = newTenantMetrics()
	return m
}

// tenant resolves a tenant name to its label value and counters,
// assigning a new label when under the cap and folding into
// OtherTenantLabel otherwise.
func (m *metricsRegistry) tenant(name string) (string, *tenantMetrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if tm := m.byLabel[name]; tm != nil {
		return name, tm
	}
	if len(m.byLabel)-1 < m.max && name != OtherTenantLabel { // -1: the fold-over series is free
		tm := newTenantMetrics()
		m.byLabel[name] = tm
		return name, tm
	}
	m.overflow.Add(1)
	return OtherTenantLabel, m.byLabel[OtherTenantLabel]
}

// labelFor maps a tenant name without assigning a new label (scrape
// paths must not grow the registry).
func (m *metricsRegistry) labelFor(name string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.byLabel[name] != nil {
		return name
	}
	return OtherTenantLabel
}

// labels returns the assigned label values, sorted for deterministic
// exposition order.
func (m *metricsRegistry) labels() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.byLabel))
	for l := range m.byLabel {
		out = append(out, l)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

func (m *metricsRegistry) get(label string) *tenantMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byLabel[label]
}

// promCollect appends the serving-layer metric families. Everything
// here is deterministic given the registry state (sorted label and
// kind order) — the golden exposition test depends on that.
func (s *Server) promCollect(p *obs.PromWriter, st Stats) {
	draining := 0.0
	if st.State != "accepting" {
		draining = 1
	}
	p.Gauge("olap_draining", "1 while the server is draining or stopped.", nil, draining)
	p.Gauge("olap_inflight", "Admitted queries currently executing.", nil, float64(st.InFlight))
	p.Counter("olap_accepted_total", "Queries admitted past the tenant gate.", nil, st.Accepted)
	p.Counter("olap_completed_total", "Admitted queries that finished (any outcome).", nil, st.Completed)
	p.Counter("olap_rejected_total", "Requests rejected because the server was draining.", nil, st.Rejected)
	p.Counter("olap_hard_cancels_total", "In-flight queries hard-canceled during drain.", nil, st.HardCanceled)
	p.Counter("olap_faults_fired_total", "Injected serve-site faults that fired.", nil, st.FaultsFired)
	p.Counter("olap_panics_recovered_total", "Handler panics recovered into typed errors.", nil, s.panics.Load())

	labels := s.metrics.labels()
	p.Gauge("olap_tenant_labels", "Distinct tenant label values assigned (cardinality cap diagnostics).", nil, float64(len(labels)))
	p.Counter("olap_tenant_label_overflow_total", "Requests folded into the _other tenant label.", nil, s.metrics.overflow.Load())

	kinds := append([]string(nil), KnownKinds()...)
	sort.Strings(kinds)
	for _, label := range labels {
		tm := s.metrics.get(label)
		lb := map[string]string{"tenant": label}
		p.Counter("olap_requests_total", "Requests entering the handler, by tenant.", lb, tm.requests.Load())
		for _, k := range kinds {
			p.Counter("olap_responses_total", "Responses by tenant and taxonomy kind (sums to olap_requests_total per tenant).",
				map[string]string{"tenant": label, "kind": k}, tm.responses[k].Load())
		}
		p.Histogram("olap_request_duration_seconds", "Request wall time from handler entry to response, by tenant.",
			lb, tm.duration.Snapshot(), 1e-9)
	}

	// Gate (admission) state, folded through the same label cap. More
	// than one gate can share a label; counters sum.
	type gateAgg struct {
		inFlight, queued        int
		admitted, shed, drained int64
		maxInFlight             int
	}
	agg := map[string]*gateAgg{}
	for _, ts := range st.Tenants {
		label := s.metrics.labelFor(ts.Tenant)
		a := agg[label]
		if a == nil {
			a = &gateAgg{}
			agg[label] = a
		}
		a.inFlight += ts.InFlight
		a.queued += ts.Queued
		a.admitted += ts.Admitted
		a.shed += ts.Shed
		a.drained += ts.Drained
		a.maxInFlight += ts.MaxInFlight
	}
	gateLabels := make([]string, 0, len(agg))
	for l := range agg {
		gateLabels = append(gateLabels, l)
	}
	sort.Strings(gateLabels)
	for _, label := range gateLabels {
		a := agg[label]
		lb := map[string]string{"tenant": label}
		p.Gauge("olap_tenant_inflight", "Queries holding an admission slot, by tenant.", lb, float64(a.inFlight))
		p.Gauge("olap_tenant_queued", "Requests waiting in the admission queue, by tenant.", lb, float64(a.queued))
		p.Gauge("olap_tenant_max_inflight", "Admission slot capacity, by tenant.", lb, float64(a.maxInFlight))
		p.Counter("olap_tenant_admitted_total", "Requests granted an admission slot, by tenant.", lb, a.admitted)
		p.Counter("olap_tenant_shed_total", "Requests shed at the admission deadline, by tenant.", lb, a.shed)
		p.Counter("olap_tenant_drained_total", "Queued requests shed by drain, by tenant.", lb, a.drained)
	}

	s.promCollectSLO(p)
	s.promCollectProfile(p)
}

// promCollectProfile appends the continuous-profiling families: CPU
// seconds attributed per tenant out of the cadence CPU captures, heap
// in use per tenant (each in-flight query's tracked bytes summed by
// tenant), and the profiler/recorder bookkeeping. All tenant series
// ride the same cardinality cap as the funnel. Absent without an
// attached profiler — attribution needs the captures.
func (s *Server) promCollectProfile(p *obs.PromWriter) {
	if s.profiler != nil {
		cpu := map[string]float64{}
		for tenant, secs := range s.profiler.TenantCPU() {
			cpu[s.metrics.labelFor(tenant)] += secs
		}
		cpuLabels := make([]string, 0, len(cpu))
		for l := range cpu {
			cpuLabels = append(cpuLabels, l)
		}
		sort.Strings(cpuLabels)
		for _, label := range cpuLabels {
			p.CounterF("olap_tenant_cpu_seconds_total",
				"CPU seconds attributed to the tenant by pprof labels in the cadence CPU captures.",
				map[string]string{"tenant": label}, cpu[label])
		}

		heap := map[string]float64{}
		for _, q := range s.db.LiveQueries() {
			tenant := q.Tenant
			if tenant == "" {
				tenant = DefaultTenant
			}
			heap[s.metrics.labelFor(tenant)] += float64(q.Bytes)
		}
		heapLabels := make([]string, 0, len(heap))
		for l := range heap {
			heapLabels = append(heapLabels, l)
		}
		sort.Strings(heapLabels)
		for _, label := range heapLabels {
			p.Gauge("olap_tenant_heap_inuse_bytes",
				"Tracked bytes materialized by the tenant's in-flight queries.",
				map[string]string{"tenant": label}, heap[label])
		}

		st := s.profiler.Stats()
		kinds := make([]string, 0, len(st.Captures))
		for k := range st.Captures {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			p.Counter("olap_profiles_captured_total", "Profiles written into the on-disk ring, by kind.",
				map[string]string{"kind": kind}, st.Captures[kind])
		}
		p.Counter("olap_profile_errors_total", "Profile captures that failed.", nil, st.Errors)
		p.Gauge("olap_profile_ring_bytes", "Bytes held by the on-disk profile ring.", nil, float64(st.RingBytes))
	}
	if s.recorder != nil {
		rs := s.recorder.Stats()
		p.Counter("olap_incident_bundles_total", "Incident bundles written by the flight recorder.", nil, rs.Written)
		p.Counter("olap_incident_triggers_total", "Flight-recorder trigger firings (written + suppressed).", nil, rs.Triggered)
		p.Counter("olap_incident_suppressed_total", "Trigger firings suppressed by the bundle rate limit.", nil, rs.Suppressed)
	}
}

// events are the serving layer's contributions to the
// gmdj_engine_events_total family, from the fields the typed olap_*
// families read: serve.* (server, tenant gates), profile.* (profiler,
// recorder), and the server's own injector's serve-site fires (summed
// into the DB's faults.injected).
func (s *Server) events(st Stats) map[string]int64 {
	ev := map[string]int64{
		"serve.panics_recovered": s.panics.Load() + s.cancelPanics.Load(),
		"serve.drains":           s.drains.Load(),
		"serve.hard_cancels":     s.hardCanceled.Load(),
		"faults.injected":        s.faults.Injected(),
	}
	for _, ts := range st.Tenants {
		ev["serve.queued"] += ts.QueuedTotal
		ev["serve.shed"] += ts.Shed
	}
	if s.profiler != nil {
		st := s.profiler.Stats()
		for _, n := range st.Captures {
			ev["profile.captures"] += n
		}
		ev["profile.errors"], ev["profile.stale_rings_removed"] = st.Errors, int64(st.StaleRingsRemoved)
	}
	if s.recorder != nil {
		rs := s.recorder.Stats()
		ev["profile.bundles"], ev["profile.bundle_errors"] = rs.Written, rs.BundleErrors
	}
	return ev
}

// writePromText renders the full exposition: the serving families,
// the engine-level families (gmdj_*, with the serving layer's events
// folded into the events family), and two process gauges. Shared by
// /metrics and the flight recorder's metrics.prom bundle member.
func (s *Server) writePromText(w io.Writer) error {
	p := obs.NewPromWriter()
	st := s.Stats() // one snapshot feeds the typed families and the events
	s.promCollect(p, st)
	s.db.PromCollect(p, s.events(st))
	p.Gauge("process_goroutines", "Live goroutines.", nil, float64(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Gauge("process_heap_alloc_bytes", "Bytes of allocated heap objects.", nil, float64(ms.HeapAlloc))
	if err := p.Err(); err != nil {
		return err
	}
	_, err := p.WriteTo(w)
	return err
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var doc bytes.Buffer
	if err := s.writePromText(&doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	_, _ = doc.WriteTo(w)
}
