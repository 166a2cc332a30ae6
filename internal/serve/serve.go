// Package serve is the engine's network front door: a concurrent
// HTTP/JSON query server layered on gmdj.DB with per-tenant admission
// quotas, per-request deadlines propagated into the governance layer,
// structured error responses carrying the engine's typed-error and
// exit-code taxonomy, retry/backoff hints on overload, and a graceful
// drain state machine for clean shutdown under load.
//
// Overload behavior is honest by construction: a tenant past its
// in-flight quota queues FIFO and is shed with HTTP 429 + Retry-After
// when its admission deadline expires (its gate is a mem.Queue over
// slots, the queue and typed error the memory pool admits bytes
// with); a draining server answers 503 + Retry-After rather than
// hanging connections; and every failure — including faults injected
// at the serve.accept, serve.write, and serve.cancel sites via
// GMDJ_FAULTS — degrades to a typed JSON error, never a panic or a
// leaked goroutine.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	httppprof "net/http/pprof"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/obs/profile"
)

// Fault-injection sites fired by the server (see govern.EnvFaults).
// All three accept the error/panic/delay actions and the @N rate
// suffix; every outcome degrades to a typed error response.
const (
	// SiteAccept fires at request admission, before the tenant gate —
	// a failing accept path (listener pressure, TLS handshake debris).
	SiteAccept = "serve.accept"
	// SiteWrite fires before response serialization — a failing or
	// wedged client connection.
	SiteWrite = "serve.write"
	// SiteCancel fires on each hard-cancel during drain and on client
	// disconnect handling.
	SiteCancel = "serve.cancel"
)

// ErrDraining reports that the server is draining (or stopped) and not
// accepting new queries. Clients should retry against another replica
// or after Retry-After.
var ErrDraining = errors.New("server draining")

// TenantHeader names the request header carrying the tenant identity.
// Absent, the request is billed to DefaultTenant.
const TenantHeader = "X-OLAP-Tenant"

// DefaultTenant is the tenant name used when no header is sent.
const DefaultTenant = "default"

// Class is the wire classification of one response: gmdj.Classify's
// for an engine error, and one of the three below for the conditions
// that only exist once there is a server in front of the engine.
type Class = gmdj.ErrorClass

var (
	classOK    = Class{Kind: "ok", HTTPStatus: http.StatusOK}
	classUsage = Class{Kind: "usage", ExitCode: 2, HTTPStatus: http.StatusBadRequest}
	// classUnavailable: the server was draining, or an injected fault
	// (modelling a transient infrastructure failure) rejected the
	// request before evaluation: typed, retryable, 503.
	classUnavailable = Class{Kind: "unavailable", ExitCode: 11, HTTPStatus: http.StatusServiceUnavailable, Retryable: true}
)

// KnownKinds enumerates every kind the server emits: the serving-only
// three and the engine's taxonomy. A load driver treats any response
// outside this set as a non-typed error — the failure mode the chaos
// scenarios exist to catch.
func KnownKinds() []string {
	kinds := []string{classOK.Kind, classUsage.Kind, classUnavailable.Kind}
	for _, c := range gmdj.ErrorClasses() {
		kinds = append(kinds, c.Kind)
	}
	return kinds
}

// Classify maps a query error onto the wire taxonomy: the engine's
// error table, extended with the serving-layer conditions.
func Classify(err error) Class {
	if err == nil {
		return classOK
	}
	c := gmdj.Classify(err)
	// "query" is the default row: no engine sentinel claimed the error.
	if c.Kind == "query" && (errors.Is(err, ErrDraining) || errors.Is(err, govern.ErrInjected)) {
		return classUnavailable
	}
	return c
}

// Config tunes a Server.
type Config struct {
	// DefaultQuota applies to every tenant without an explicit entry in
	// Tenants (including DefaultTenant).
	DefaultQuota Quota
	// Tenants maps tenant names to explicit quotas.
	Tenants map[string]Quota
	// DefaultTimeout bounds a request that does not carry its own
	// timeout_ms (0 = no server-imposed deadline).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested timeouts (0 = unclamped).
	MaxTimeout time.Duration
	// DrainGrace is the Retry-After hint handed to clients rejected
	// during drain (default 1s).
	DrainGrace time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// Admin mounts the observability dashboard (/debug/olap/*, which
	// includes the /debug/olap/trace download) and the tenant/admission
	// stats (/debug/serve) on the server's mux. The Prometheus /metrics
	// endpoint is always mounted.
	Admin bool
	// Faults injects failures at the serve.* sites (nil = none).
	Faults *govern.Injector
	// Logger receives one structured line per finished request plus
	// lifecycle events (drain, fault fires). Nil disables logging.
	Logger *slog.Logger
	// SLOs declares per-tenant objectives published on /metrics (targets,
	// observed values, error-budget burn). The server never enforces
	// them; asserting on burn is the load driver's job.
	SLOs map[string]SLO
	// MaxTenantLabels caps distinct tenant label values on /metrics
	// (default DefaultMaxTenantLabels); tenants beyond the cap fold into
	// the "_other" series.
	MaxTenantLabels int
	// Profiler is the background cadence profiler (nil = none). With
	// Admin it backs /debug/olap/profiles and the per-tenant CPU/heap
	// attribution families on /metrics. The caller owns its lifecycle.
	Profiler *profile.Profiler
	// Recorder is the incident flight recorder (nil = none). The server
	// registers its bundle sources (metrics scrape, trace, slowlog,
	// config snapshot, active profiles) and the trigger probes below;
	// the caller owns Start/Close.
	Recorder *profile.Recorder
	// IncidentSlowQuery triggers an incident bundle when a query's
	// execute phase exceeds this wall time (0 = off).
	IncidentSlowQuery time.Duration
	// IncidentBurn triggers on SLO error-budget burn at or above this
	// rate for any tenant with a declared objective (0 = off).
	IncidentBurn float64
	// IncidentQueueDepth triggers when any tenant's admission queue
	// reaches this depth (0 = off).
	IncidentQueueDepth int
	// IncidentMemPressure triggers when the memory pool's in-use
	// fraction reaches this threshold in (0, 1] (0 = off).
	IncidentMemPressure float64
}

// Server serves SQL queries over HTTP/JSON on top of one gmdj.DB.
// Handlers are safe for arbitrary concurrency; lifecycle (Drain) may
// be driven from any goroutine.
type Server struct {
	db       *gmdj.DB
	cfg      Config
	faults   *govern.Injector
	mux      *http.ServeMux
	hist     *obs.HistSet
	metrics  *metricsRegistry
	logger   *slog.Logger
	profiler *profile.Profiler
	recorder *profile.Recorder

	mu       sync.Mutex
	draining bool
	gates    map[string]*gate
	inflight map[int64]*inflightQuery
	nextID   int64

	accepted     atomic.Int64
	completed    atomic.Int64
	rejected     atomic.Int64 // drain-time 503s
	hardCanceled atomic.Int64
	faultsFired  atomic.Int64
	panics       atomic.Int64 // handler panics recovered
	cancelPanics atomic.Int64 // injected serve.cancel panics contained by hardCancel
	drains       atomic.Int64
	tidSeq       atomic.Int64 // trace-timeline row allocator
}

// inflightQuery is one admitted query's drain handle.
type inflightQuery struct {
	tenant string
	cancel context.CancelFunc
}

// NewServer builds a server over db. The DB should have observability
// enabled if the /debug/olap endpoints are wanted (Config.Admin).
func NewServer(db *gmdj.DB, cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = time.Second
	}
	s := &Server{
		db:       db,
		cfg:      cfg,
		faults:   cfg.Faults,
		mux:      http.NewServeMux(),
		hist:     obs.NewHistSet(),
		metrics:  newMetricsRegistry(cfg.MaxTenantLabels),
		logger:   cfg.Logger,
		profiler: cfg.Profiler,
		recorder: cfg.Recorder,
		gates:    map[string]*gate{},
		inflight: map[int64]*inflightQuery{},
	}
	// SLO tenants hold label slots from the start so their series exist
	// (at zero) before any traffic arrives.
	sloTenants := make([]string, 0, len(cfg.SLOs))
	for t := range cfg.SLOs {
		sloTenants = append(sloTenants, t)
	}
	sort.Strings(sloTenants)
	for _, t := range sloTenants {
		s.metrics.tenant(t)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.Admin {
		s.mux.Handle("/debug/olap/", db.ObsHTTPHandler())
		s.mux.HandleFunc("/debug/serve", s.handleStats)
		// Live pprof endpoints plus the on-disk profile/incident index.
		// Go's label inheritance means a CPU profile fetched here during
		// load carries tenant/rid/strategy labels on query samples.
		s.mux.HandleFunc("/debug/pprof/", httppprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		s.mux.Handle("/debug/olap/profiles", profile.IndexHandler(s.profiler, s.recorder))
		s.mux.Handle("/debug/olap/profiles/", profile.IndexHandler(s.profiler, s.recorder))
		if s.recorder != nil {
			s.mux.HandleFunc("/debug/olap/incident", s.handleIncident)
		}
	}
	s.wireRecorder()
	return s
}

// wireRecorder registers the flight recorder's bundle sources and
// trigger probes. Sources freeze the server's observable state at
// incident time; probes are the standing trigger conditions the
// recorder's watch loop polls. The slow-query trigger is inline in
// handleQuery instead — it needs per-request elapsed time.
func (s *Server) wireRecorder() {
	rec := s.recorder
	if rec == nil {
		return
	}
	rec.AddSource("metrics.prom", s.writePromText)
	rec.AddSource("slowlog.json", s.db.WriteSlowLog)
	rec.AddSource("trace.json", func(w io.Writer) error {
		if s.db.Tracer() == nil {
			_, err := io.WriteString(w, "[]")
			return err
		}
		return s.db.WriteTrace(w)
	})
	rec.AddSource("config.json", s.writeConfigSnapshot)
	rec.AddSource("heap.pprof", func(w io.Writer) error { return profile.WriteSnapshotTo("heap", w, 0) })
	rec.AddSource("goroutine.pprof", func(w io.Writer) error { return profile.WriteSnapshotTo("goroutine", w, 0) })
	rec.AddSource("mutex.pprof", func(w io.Writer) error { return profile.WriteSnapshotTo("mutex", w, 0) })
	if s.profiler != nil {
		// The newest ring CPU capture; when the cadence has not produced
		// one yet, sample a short window right now so the bundle still
		// shows where cycles were going at incident time.
		rec.AddSource("cpu.pprof", func(w io.Writer) error {
			if err := s.profiler.CopyLatestTo("cpu", w); err == nil {
				return nil
			}
			if _, err := s.profiler.CaptureNow(500 * time.Millisecond); err != nil {
				return err
			}
			return s.profiler.CopyLatestTo("cpu", w)
		})
	}
	if s.cfg.IncidentBurn > 0 && len(s.cfg.SLOs) > 0 {
		rec.AddProbe(profile.TriggerSLOBurn, func() (bool, string) {
			worst, burn := "", 0.0
			for _, rep := range s.sloReports() {
				if rep.burn > burn {
					worst, burn = rep.tenant, rep.burn
				}
			}
			if burn >= s.cfg.IncidentBurn {
				return true, fmt.Sprintf("tenant %q error-budget burn %.3f >= %.3f", worst, burn, s.cfg.IncidentBurn)
			}
			return false, ""
		})
	}
	if s.cfg.IncidentQueueDepth > 0 {
		rec.AddProbe(profile.TriggerQueueDepth, func() (bool, string) {
			for _, ts := range s.Stats().Tenants {
				if ts.Queued >= s.cfg.IncidentQueueDepth {
					return true, fmt.Sprintf("tenant %q admission queue depth %d >= %d", ts.Tenant, ts.Queued, s.cfg.IncidentQueueDepth)
				}
			}
			return false, ""
		})
	}
	if s.cfg.IncidentMemPressure > 0 {
		rec.AddProbe(profile.TriggerMemPressure, func() (bool, string) {
			if u := s.db.MemPressure(); u >= s.cfg.IncidentMemPressure {
				return true, fmt.Sprintf("memory pool %.0f%% in use >= %.0f%%", u*100, s.cfg.IncidentMemPressure*100)
			}
			return false, ""
		})
	}
}

// configSnapshot is the bundle's config.json: the serving envelope in
// effect when the incident fired, next to the server's own counters.
type configSnapshot struct {
	DefaultQuota        Quota            `json:"default_quota"`
	Tenants             map[string]Quota `json:"tenants,omitempty"`
	DefaultTimeout      string           `json:"default_timeout"`
	MaxTimeout          string           `json:"max_timeout"`
	SLOs                map[string]SLO   `json:"slos,omitempty"`
	MaxTenantLabels     int              `json:"max_tenant_labels"`
	IncidentSlowQuery   string           `json:"incident_slow_query"`
	IncidentBurn        float64          `json:"incident_burn"`
	IncidentQueueDepth  int              `json:"incident_queue_depth"`
	IncidentMemPressure float64          `json:"incident_mem_pressure"`
	Stats               Stats            `json:"stats"`
	Profiler            *profile.Stats   `json:"profiler,omitempty"`
	MemStats            gmdj.MemStats    `json:"mem_stats"`
}

func (s *Server) writeConfigSnapshot(w io.Writer) error {
	snap := configSnapshot{
		DefaultQuota:        s.cfg.DefaultQuota,
		Tenants:             s.cfg.Tenants,
		DefaultTimeout:      s.cfg.DefaultTimeout.String(),
		MaxTimeout:          s.cfg.MaxTimeout.String(),
		SLOs:                s.cfg.SLOs,
		MaxTenantLabels:     s.cfg.MaxTenantLabels,
		IncidentSlowQuery:   s.cfg.IncidentSlowQuery.String(),
		IncidentBurn:        s.cfg.IncidentBurn,
		IncidentQueueDepth:  s.cfg.IncidentQueueDepth,
		IncidentMemPressure: s.cfg.IncidentMemPressure,
		Stats:               s.Stats(),
		MemStats:            s.db.MemStats(),
	}
	if s.profiler != nil {
		st := s.profiler.Stats()
		snap.Profiler = &st
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// handleIncident forces a flight-recorder bundle (POST, admin-only
// mount): the chaos harness's deterministic mid-storm trigger. The
// rate limit still applies; the response reports whether a bundle was
// written and where.
func (s *Server) handleIncident(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	reason := r.URL.Query().Get("reason")
	if reason == "" {
		reason = "manual trigger via /debug/olap/incident"
	}
	dir, written := s.recorder.TriggerSync(profile.TriggerManual, reason)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{"written": written, "bundle": dir})
}

// logw emits one structured log line when a logger is configured.
func (s *Server) logw(level slog.Level, msg string, args ...any) {
	if s.logger == nil {
		return
	}
	s.logger.Log(context.Background(), level, msg, args...)
}

// Handler returns the server's mux.
func (s *Server) Handler() http.Handler { return s.mux }

// gate returns (creating on demand) the tenant's admission gate.
func (s *Server) gate(tenant string) *gate {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.gates[tenant]
	if g == nil {
		q, ok := s.cfg.Tenants[tenant]
		if !ok {
			q = s.cfg.DefaultQuota
		}
		g = newGate(tenant, q)
		if s.draining {
			g.close()
		}
		s.gates[tenant] = g
	}
	return g
}

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL       string `json:"sql"`
	Strategy  string `json:"strategy,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	Args      []any  `json:"args,omitempty"`
}

// queryResponse is the success body. RequestID echoes the request's
// trace ID (minted or client-supplied) so a client can join its
// response to server-side logs, the slow-query log, and the trace.
type queryResponse struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	RowCount  int      `json:"row_count"`
	ElapsedNs int64    `json:"elapsed_ns"`
	Strategy  string   `json:"strategy"`
	Tenant    string   `json:"tenant"`
	RequestID string   `json:"request_id"`
}

// errorResponse is the structured error body: the message, the typed
// classification, the request ID, and a backoff hint when a retry can
// help.
type errorResponse struct {
	Error string `json:"error"`
	Class
	RequestID    string `json:"request_id"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// serveTidBase offsets the serving layer's trace-timeline rows away
// from the engine's operator rows (the plan span uses tid 1); rows are
// reused modulo serveTidSlots so concurrent requests land on distinct
// timelines without unbounded row growth.
const (
	serveTidBase  = 100
	serveTidSlots = 256
)

// requestWriter is the single exit funnel for one request. Every
// response — success, typed error, usage error, recovered panic —
// flows through exactly one finish() call, which bills the outcome to
// the tenant's /metrics counters, closes the request span, and emits
// the structured log line. That construction is what makes the
// per-tenant reconciliation invariant (requests == sum of responses
// by kind) hold unconditionally.
type requestWriter struct {
	s        *Server
	w        http.ResponseWriter
	tenant   string // real tenant name (gate, context, response body)
	rid      string
	tm       *tenantMetrics // capped label series the outcome bills to
	tid      int64
	start    time.Time
	sql      string
	strategy string
	rows     int
	done     bool
}

// beginRequest resolves identity before anything can fail: the tenant
// (header or default), the request ID (client-supplied X-Request-Id,
// sanitized, or freshly minted), the capped metrics series. The ID is
// set as a response header immediately so even a panic that corrupts
// the body still echoes it.
func (s *Server) beginRequest(w http.ResponseWriter, r *http.Request) *requestWriter {
	tenant := r.Header.Get(TenantHeader)
	if tenant == "" {
		tenant = DefaultTenant
	}
	rid := obs.SanitizeRequestID(r.Header.Get(obs.RequestIDHeader))
	if rid == "" {
		rid = obs.NewRequestID()
	}
	_, tm := s.metrics.tenant(tenant)
	tm.requests.Add(1)
	w.Header().Set(obs.RequestIDHeader, rid)
	return &requestWriter{
		s:      s,
		w:      w,
		tenant: tenant,
		rid:    rid,
		tm:     tm,
		tid:    serveTidBase + s.tidSeq.Add(1)%serveTidSlots,
		start:  time.Now(),
		rows:   -1,
	}
}

// span records one serving-phase span onto the engine's trace ring,
// tagged with the request identity so server phases and operator
// events join on one Perfetto timeline. No-op without a tracer.
func (rw *requestWriter) span(name string, start time.Time, extra string) {
	t := rw.s.db.Tracer()
	if t == nil {
		return
	}
	arg := "rid=" + rw.rid + " tenant=" + rw.tenant
	if extra != "" {
		arg += " " + extra
	}
	t.SpanArgs("serve", name, rw.tid, start, time.Since(start), arg)
}

// finish closes the funnel exactly once: outcome counter, latency
// sample, request span, log line.
func (rw *requestWriter) finish(kind string, status int, errText string) {
	if rw.done {
		return
	}
	rw.done = true
	elapsed := time.Since(rw.start)
	rw.tm.countResponse(kind, elapsed)
	rw.span("request", rw.start, "kind="+kind)
	level := slog.LevelInfo
	args := []any{
		"request_id", rw.rid,
		"tenant", rw.tenant,
		"kind", kind,
		"status", status,
		"elapsed_ms", float64(elapsed.Microseconds()) / 1e3,
	}
	if rw.strategy != "" {
		args = append(args, "strategy", rw.strategy)
	}
	if rw.sql != "" {
		args = append(args, "sql", truncateSQL(rw.sql))
	}
	if rw.rows >= 0 {
		args = append(args, "rows", rw.rows)
	}
	if errText != "" {
		level = slog.LevelWarn
		args = append(args, "error", errText)
	}
	rw.s.logw(level, "query", args...)
}

// fail emits the structured error body and closes the funnel.
// retryAfter <= 0 omits the hint and header.
func (rw *requestWriter) fail(err error, retryAfter time.Duration) {
	rw.reject(Classify(err), err.Error(), retryAfter)
}

// usage is a malformed request (not a query failure): kind "usage",
// HTTP 400, exit 2.
func (rw *requestWriter) usage(msg string) { rw.reject(classUsage, msg, 0) }

// reject writes one error response. A request that already finished
// (panic after a written response) is counted once only.
func (rw *requestWriter) reject(cl Class, msg string, retryAfter time.Duration) {
	if rw.done {
		return
	}
	resp := errorResponse{Error: msg, Class: cl, RequestID: rw.rid}
	if cl.Retryable && retryAfter > 0 {
		resp.RetryAfterMS = retryAfter.Milliseconds()
		secs := int64(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		rw.w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	rw.w.Header().Set("Content-Type", "application/json")
	rw.w.WriteHeader(cl.HTTPStatus)
	_ = json.NewEncoder(rw.w).Encode(resp)
	rw.finish(cl.Kind, cl.HTTPStatus, msg)
}

// ok serializes the success body (under its own span — serialization
// of a wide result is real work) and closes the funnel.
func (rw *requestWriter) ok(resp *queryResponse) {
	if rw.done {
		return
	}
	serStart := time.Now()
	rw.w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw.w).Encode(resp)
	rw.span("serialize", serStart, "")
	rw.rows = resp.RowCount
	rw.finish("ok", http.StatusOK, "")
}

// fireFault fires an injected fault site, counting and logging a hit.
func (rw *requestWriter) fireFault(site string) error {
	err := rw.s.faults.Fire(site, nil)
	if err != nil {
		rw.s.faultsFired.Add(1)
		rw.s.logw(slog.LevelWarn, "fault fired",
			"request_id", rw.rid, "tenant", rw.tenant, "site", site, "error", err.Error())
	}
	return err
}

func truncateSQL(s string) string {
	s = strings.Join(strings.Fields(s), " ")
	if len(s) > 120 {
		return s[:117] + "..."
	}
	return s
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rw := s.beginRequest(w, r)
	// Panic isolation at the serving boundary: a handler panic (e.g. an
	// injected panic at a serve.* site) becomes a typed internal error,
	// never a crashed connection without a body.
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			rw.fail(fmt.Errorf("%w: serving panic: %v", govern.ErrInternal, p), 0)
		}
	}()
	if r.Method != http.MethodPost {
		rw.usage("POST only")
		return
	}
	if s.isDraining() {
		s.rejected.Add(1)
		rw.fail(fmt.Errorf("%w: not accepting queries", ErrDraining), s.cfg.DrainGrace)
		return
	}
	if err := rw.fireFault(SiteAccept); err != nil {
		rw.fail(fmt.Errorf("accepting request: %w", err), s.cfg.DrainGrace)
		return
	}

	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		rw.usage("bad request body: " + err.Error())
		return
	}
	if strings.TrimSpace(req.SQL) == "" {
		rw.usage("empty sql")
		return
	}
	if req.Strategy == "" {
		req.Strategy = gmdj.GMDJOpt.String()
	}
	strategy, err := gmdj.ParseStrategy(req.Strategy)
	if err != nil {
		rw.usage(err.Error())
		return
	}
	rw.sql, rw.strategy = req.SQL, strategy.String()

	// Tenant admission: queue FIFO for an in-flight slot, shedding with
	// 429 + Retry-After at the tenant's admission deadline. The request
	// context bounds the wait too, so a disconnected client releases
	// its queue position immediately. The span is the admission wait
	// made visible: on an uncontended server it is microseconds; under
	// a noisy neighbor it is the queue time the tenant actually paid.
	g := s.gate(rw.tenant)
	gateStart := time.Now()
	release, err := g.Enter(r.Context())
	rw.span("tenant-gate", gateStart, "")
	if err != nil {
		rw.fail(err, retryHint(g))
		return
	}
	defer release()

	// Per-request deadline, propagated into the governance layer: the
	// engine's governor sees it as its context deadline, so operator
	// loops abort with ErrTimeout exactly as an engine-level budget.
	// The request identity rides the same context into the engine —
	// registry rows, slow-query log entries, and EXPLAIN ANALYZE trees
	// all pick it up from there.
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	base := obs.WithTenant(obs.WithRequestID(r.Context(), rw.rid), rw.tenant)
	ctx, cancel := context.WithCancel(base)
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(base, timeout)
	}
	defer cancel()
	id := s.track(rw.tenant, cancel)
	defer s.untrack(id)
	s.accepted.Add(1)

	execStart := time.Now()
	var res *gmdj.Result
	// Serving-phase pprof labels: the engine re-labels with the
	// strategy and phase=execute inside, so a CPU profile separates
	// handler overhead from engine work per tenant and request.
	pprof.Do(ctx, profile.QueryLabels(rw.tenant, rw.rid, strategy.String(), "serve"), func(lctx context.Context) {
		res, err = s.run(lctx, req, strategy)
	})
	elapsed := time.Since(execStart)
	s.completed.Add(1)
	s.hist.Record("http_ns.all", int64(elapsed))
	s.hist.Record("http_ns."+rw.tenant, int64(elapsed))
	rw.span("execute", execStart, "")
	if s.recorder != nil && s.cfg.IncidentSlowQuery > 0 && elapsed >= s.cfg.IncidentSlowQuery {
		s.recorder.Trigger(profile.TriggerSlowQuery,
			fmt.Sprintf("tenant %q rid %s: execute took %s >= %s", rw.tenant, rw.rid, elapsed, s.cfg.IncidentSlowQuery))
	}
	if err != nil {
		s.hist.Record("http_err_ns."+Classify(err).Kind, int64(elapsed))
		rw.fail(err, retryHint(g))
		return
	}

	if err := rw.fireFault(SiteWrite); err != nil {
		rw.fail(fmt.Errorf("writing response: %w", err), s.cfg.DrainGrace)
		return
	}
	rw.ok(&queryResponse{
		Columns:   res.Columns,
		Rows:      res.Rows,
		RowCount:  res.Len(),
		ElapsedNs: int64(elapsed),
		Strategy:  strategy.String(),
		Tenant:    rw.tenant,
		RequestID: rw.rid,
	})
}

// run evaluates one request: direct for plain SQL, through a prepared
// statement when arguments are supplied.
func (s *Server) run(ctx context.Context, req queryRequest, strategy gmdj.Strategy) (*gmdj.Result, error) {
	if len(req.Args) > 0 {
		st, err := s.db.PrepareStrategy(req.SQL, strategy)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		return st.QueryContext(ctx, normalizeArgs(req.Args)...)
	}
	return s.db.QueryStrategyContext(ctx, req.SQL, strategy)
}

// normalizeArgs maps JSON-decoded argument values onto the engine's
// accepted Go types (JSON numbers arrive as float64; whole ones almost
// always mean integer columns).
func normalizeArgs(args []any) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if f, ok := a.(float64); ok && f == float64(int64(f)) {
			out[i] = int64(f)
			continue
		}
		out[i] = a
	}
	return out
}

// retryHint suggests a client backoff from the tenant's queue depth:
// an empty queue means capacity frees within one admission window; a
// deep queue scales the hint up (clamped to 30s).
func retryHint(g *gate) time.Duration {
	st := g.stats()
	hint := g.admission / 2
	if hint < 100*time.Millisecond {
		hint = 100 * time.Millisecond
	}
	if st.Queued > 0 && st.MaxInFlight > 0 {
		hint = time.Duration(1+st.Queued/st.MaxInFlight) * g.admission
	}
	if hint > 30*time.Second {
		hint = 30 * time.Second
	}
	return hint
}

// track registers an admitted query's cancel for the drain hard phase.
func (s *Server) track(tenant string, cancel context.CancelFunc) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	s.inflight[s.nextID] = &inflightQuery{tenant: tenant, cancel: cancel}
	return s.nextID
}

func (s *Server) untrack(id int64) {
	s.mu.Lock()
	delete(s.inflight, id)
	s.mu.Unlock()
}

// InFlight reports the number of admitted, still-running queries.
func (s *Server) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// StartDrain flips the server into draining mode: new queries are
// rejected with 503 + Retry-After, and every tenant's admission queue
// is shed with a typed ErrDraining. In-flight queries keep running.
// Idempotent.
func (s *Server) StartDrain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	gates := make([]*gate, 0, len(s.gates))
	for _, g := range s.gates {
		gates = append(gates, g)
	}
	s.mu.Unlock()
	for _, g := range gates {
		g.close()
	}
	s.drains.Add(1)
	s.logw(slog.LevelInfo, "drain started", "in_flight", s.InFlight())
}

// Drain runs the drain state machine: StartDrain, then wait for
// in-flight queries to finish within ctx's deadline (the drain
// budget), then hard-cancel stragglers through their governor contexts
// and wait once more (canceled queries unwind cooperatively within a
// few hundred rows of any operator loop). It returns nil when the
// server is fully quiesced; the returned error reports queries that
// survived even the hard cancel.
func (s *Server) Drain(ctx context.Context) error {
	s.StartDrain()
	if s.awaitIdle(ctx) {
		return nil
	}
	n := s.hardCancel()
	s.logw(slog.LevelWarn, "drain budget expired", "hard_canceled", n)
	// Post-cancel grace: cooperative abort latency is bounded by the
	// operator tick interval, not the drain budget that just expired.
	grace, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.awaitIdle(grace) {
		return nil
	}
	return fmt.Errorf("serve: %d queries still running after hard cancel", s.InFlight())
}

// awaitIdle waits until no queries are in flight or ctx expires.
func (s *Server) awaitIdle(ctx context.Context) bool {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.InFlight() == 0 {
			return true
		}
		select {
		case <-ctx.Done():
			return s.InFlight() == 0
		case <-tick.C:
		}
	}
}

// hardCancel cancels every in-flight query's context, firing the
// serve.cancel fault site per query. Injected cancel faults (error or
// panic) are contained: the cancel itself always runs.
func (s *Server) hardCancel() int {
	s.mu.Lock()
	pending := make([]*inflightQuery, 0, len(s.inflight))
	for _, q := range s.inflight {
		pending = append(pending, q)
	}
	s.mu.Unlock()
	for _, q := range pending {
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.cancelPanics.Add(1)
				}
			}()
			if err := s.faults.Fire(SiteCancel, nil); err != nil {
				s.faultsFired.Add(1)
			}
		}()
		q.cancel()
		s.hardCanceled.Add(1)
	}
	return len(pending)
}

// healthResponse is GET /healthz.
type healthResponse struct {
	State     string `json:"state"`
	InFlight  int    `json:"in_flight"`
	Accepted  int64  `json:"accepted"`
	Completed int64  `json:"completed"`
	Rejected  int64  `json:"rejected"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	state := "accepting"
	if s.isDraining() {
		state = "draining"
	}
	resp := healthResponse{
		State:     state,
		InFlight:  s.InFlight(),
		Accepted:  s.accepted.Load(),
		Completed: s.completed.Load(),
		Rejected:  s.rejected.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	if state != "accepting" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// Stats is the server-level snapshot served at /debug/serve.
type Stats struct {
	State        string                      `json:"state"`
	InFlight     int                         `json:"in_flight"`
	Accepted     int64                       `json:"accepted"`
	Completed    int64                       `json:"completed"`
	Rejected     int64                       `json:"rejected"`
	HardCanceled int64                       `json:"hard_canceled"`
	FaultsFired  int64                       `json:"faults_fired"`
	Tenants      []TenantStats               `json:"tenants"`
	Latency      map[string]obs.HistSnapshot `json:"latency"`
}

// Stats snapshots the server.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	state := "accepting"
	if s.draining {
		state = "draining"
	}
	gates := make([]*gate, 0, len(s.gates))
	for _, g := range s.gates {
		gates = append(gates, g)
	}
	inFlight := len(s.inflight)
	s.mu.Unlock()
	st := Stats{
		State:        state,
		InFlight:     inFlight,
		Accepted:     s.accepted.Load(),
		Completed:    s.completed.Load(),
		Rejected:     s.rejected.Load(),
		HardCanceled: s.hardCanceled.Load(),
		FaultsFired:  s.faultsFired.Load(),
		Latency:      s.hist.Snapshot(),
	}
	for _, g := range gates {
		st.Tenants = append(st.Tenants, g.stats())
	}
	sort.Slice(st.Tenants, func(i, j int) bool { return st.Tenants[i].Tenant < st.Tenants[j].Tenant })
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}
