package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Live query registry and the Observer that ties the workload-level
// observability layer together. Every observed query registers an
// in-flight entry whose row/byte counters are bumped live from the
// executor's operator loops (and the GMDJ detail scan, including
// parallel workers), so a dashboard can show what a long query is
// doing *while it runs* — not just after it finishes. The registry is
// served over HTTP at /debug/olap/queries and the histograms at
// /debug/olap/hist, next to the expvar handler embedders already
// mount.

// LiveQuery is one in-flight query's live progress counters. The
// executor bumps them with atomic adds from whatever goroutine is
// doing the work; readers (the HTTP dashboard) load them without
// coordination. All methods are nil-safe, so the hooks cost one nil
// check when no observer is attached.
type LiveQuery struct {
	id       int64
	sql      string
	strategy string
	// requestID and tenant come off the query's context (see reqid.go);
	// both are "" for embedded/library callers with no serving edge.
	requestID string
	tenant    string
	start     time.Time

	rows    atomic.Int64 // materialized output rows across operators
	bytes   atomic.Int64 // approximate materialized bytes
	scanned atomic.Int64 // base-table rows produced by Scan operators
	detail  atomic.Int64 // GMDJ detail tuples fed (all workers)
}

// AddOut charges rows/bytes materialized by an operator. Nil-safe.
func (q *LiveQuery) AddOut(rows, bytes int64) {
	if q == nil {
		return
	}
	q.rows.Add(rows)
	q.bytes.Add(bytes)
}

// AddScanned counts base-table rows produced by a Scan. Nil-safe.
func (q *LiveQuery) AddScanned(n int64) {
	if q == nil {
		return
	}
	q.scanned.Add(n)
}

// AddDetail counts GMDJ detail tuples fed through a program; parallel
// workers share the counter. Nil-safe.
func (q *LiveQuery) AddDetail(n int64) {
	if q == nil {
		return
	}
	q.detail.Add(n)
}

// LiveSnapshot is a point-in-time copy of one in-flight query, as
// served by /debug/olap/queries.
type LiveSnapshot struct {
	ID         int64     `json:"id"`
	RequestID  string    `json:"request_id,omitempty"`
	Tenant     string    `json:"tenant,omitempty"`
	SQL        string    `json:"sql,omitempty"`
	Strategy   string    `json:"strategy"`
	Start      time.Time `json:"start"`
	ElapsedNs  int64     `json:"elapsed_ns"`
	Rows       int64     `json:"rows"`
	Bytes      int64     `json:"bytes"`
	Scanned    int64     `json:"rows_scanned"`
	DetailRows int64     `json:"detail_rows"`
}

func (q *LiveQuery) snapshot(now time.Time) LiveSnapshot {
	return LiveSnapshot{
		ID:         q.id,
		RequestID:  q.requestID,
		Tenant:     q.tenant,
		SQL:        q.sql,
		Strategy:   q.strategy,
		Start:      q.start,
		ElapsedNs:  now.Sub(q.start).Nanoseconds(),
		Rows:       q.rows.Load(),
		Bytes:      q.bytes.Load(),
		Scanned:    q.scanned.Load(),
		DetailRows: q.detail.Load(),
	}
}

// ObserverConfig tunes NewObserver.
type ObserverConfig struct {
	// SlowQueryThreshold is the minimum wall time for a query to enter
	// the slow-query log (0 logs every query).
	SlowQueryThreshold time.Duration
	// SlowLogCapacity bounds slow-log retention
	// (DefaultQueryLogCapacity when <= 0).
	SlowLogCapacity int
}

// Observer aggregates observability across queries: latency and
// cardinality histograms keyed by strategy and operator kind, the
// slow-query log, and the live in-flight registry. One Observer serves
// one engine (or several — all state is concurrency-safe). Every hook
// method is a no-op on a nil *Observer, so the engine threads it
// through unconditionally.
type Observer struct {
	// latency histograms: "query_ns.<strategy>" per-query wall time,
	// "op_ns.<kind>" inclusive per-operator wall time.
	latency *HistSet
	// rows histograms: "query_rows.<strategy>", "op_rows.<kind>".
	rows *HistSet

	slowlog *QueryLog

	mu       sync.Mutex
	inflight map[int64]*LiveQuery
	nextID   atomic.Int64
	// memSource, when set, provides the engine's memory-pool and
	// spill-store snapshot for /debug/olap/mem (obs cannot import the
	// engine, so the value crosses as an opaque JSON-marshalable any).
	memSource func() any
	// traceSource, when set, streams the engine's Chrome-trace ring for
	// /debug/olap/trace (same opacity argument as memSource).
	traceSource func(io.Writer) error
}

// NewObserver creates an observer with the given slow-query policy.
func NewObserver(cfg ObserverConfig) *Observer {
	return &Observer{
		latency:  NewHistSet(),
		rows:     NewHistSet(),
		slowlog:  NewQueryLog(cfg.SlowQueryThreshold, cfg.SlowLogCapacity),
		inflight: map[int64]*LiveQuery{},
	}
}

// QueryStart registers an in-flight query and returns its live entry
// (nil on a nil observer — every LiveQuery method tolerates that). The
// context supplies the request ID and tenant when the query arrived
// through a serving edge (see WithRequestID/WithTenant); a nil or bare
// context is fine and leaves both empty.
func (o *Observer) QueryStart(ctx context.Context, sql, strategy string) *LiveQuery {
	if o == nil {
		return nil
	}
	q := &LiveQuery{
		id:        o.nextID.Add(1),
		sql:       sql,
		strategy:  strategy,
		requestID: ContextRequestID(ctx),
		tenant:    ContextTenant(ctx),
		start:     time.Now(),
	}
	o.mu.Lock()
	o.inflight[q.id] = q
	o.mu.Unlock()
	return q
}

// QueryEnd unregisters the live entry, records the query's latency and
// cardinality histograms (keyed by strategy, then by operator kind
// from the stats tree when one was collected), and offers the query to
// the slow-query log. outcome follows the governance taxonomy ("ok",
// "canceled", ...). Nil-safe.
func (o *Observer) QueryEnd(q *LiveQuery, elapsed time.Duration, rows int64, root *Op, outcome, errText string) {
	if o == nil {
		return
	}
	strategy := "unknown"
	sql, requestID, tenant := "", "", ""
	if q != nil {
		strategy, sql = q.strategy, q.sql
		requestID, tenant = q.requestID, q.tenant
		o.mu.Lock()
		delete(o.inflight, q.id)
		o.mu.Unlock()
	}
	o.latency.Record("query_ns."+strategy, int64(elapsed))
	o.rows.Record("query_rows."+strategy, rows)
	o.sampleOps(root)
	o.slowlog.Observe(QueryRecord{
		Time:      time.Now(),
		RequestID: requestID,
		Tenant:    tenant,
		SQL:       sql,
		Strategy:  strategy,
		Elapsed:   elapsed,
		Rows:      rows,
		Outcome:   outcome,
		Err:       errText,
		Stats:     root,
	})
}

// OpSample records one operator execution into the per-kind histograms
// (inclusive wall time, output rows). Nil-safe.
func (o *Observer) OpSample(kind string, elapsed time.Duration, rows int64) {
	if o == nil || kind == "" {
		return
	}
	o.latency.Record("op_ns."+kind, int64(elapsed))
	o.rows.Record("op_rows."+kind, rows)
}

func (o *Observer) sampleOps(root *Op) {
	if root == nil {
		return
	}
	o.OpSample(OpKind(root.Label), root.Elapsed, root.Rows)
	for _, ch := range root.Children {
		o.sampleOps(ch)
	}
}

// OpKind reduces an operator label ("GMDJ +completion (1 conditions)",
// "Scan Flow->F") to its histogram key ("gmdj", "scan").
func OpKind(label string) string {
	end := len(label)
	for i, r := range label {
		if r == ' ' || r == '[' || r == '(' {
			end = i
			break
		}
	}
	return strings.ToLower(label[:end])
}

// SlowLog returns the slow-query log (nil on a nil observer).
func (o *Observer) SlowLog() *QueryLog {
	if o == nil {
		return nil
	}
	return o.slowlog
}

// Histograms returns a snapshot of every histogram, keyed
// "query_ns.<strategy>", "query_rows.<strategy>", "op_ns.<kind>",
// "op_rows.<kind>". Nil-safe (empty map).
func (o *Observer) Histograms() map[string]HistSnapshot {
	out := map[string]HistSnapshot{}
	if o == nil {
		return out
	}
	for k, v := range o.latency.Snapshot() {
		out[k] = v
	}
	for k, v := range o.rows.Snapshot() {
		out[k] = v
	}
	return out
}

// InFlight snapshots the live registry, ordered by query id (oldest
// first). Nil-safe (empty slice).
func (o *Observer) InFlight() []LiveSnapshot {
	if o == nil {
		return nil
	}
	now := time.Now()
	o.mu.Lock()
	out := make([]LiveSnapshot, 0, len(o.inflight))
	for _, q := range o.inflight {
		out = append(out, q.snapshot(now))
	}
	o.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FormatInFlight renders the live registry as text, one query per
// line. Nil-safe.
func (o *Observer) FormatInFlight() string {
	live := o.InFlight()
	if len(live) == 0 {
		return "(no queries in flight)\n"
	}
	var b strings.Builder
	for _, q := range live {
		sql := q.SQL
		if sql == "" {
			sql = "(plan)"
		}
		rid := q.RequestID
		if rid == "" {
			rid = "-"
		}
		fmt.Fprintf(&b, "#%-4d %-16s %-10s %-9s rows=%-8d bytes=%-10d scanned=%-8d detail=%-8d %s\n",
			q.ID, rid, q.Strategy, fmtDuration(time.Duration(q.ElapsedNs)), q.Rows, q.Bytes, q.Scanned, q.DetailRows, sql)
	}
	return b.String()
}

// SetMemSource registers the provider behind /debug/olap/mem (the
// engine wires its memory-status snapshot here). Nil-safe; nil fn
// removes the endpoint (404).
func (o *Observer) SetMemSource(fn func() any) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.memSource = fn
	o.mu.Unlock()
}

// SetTraceSource registers the provider behind /debug/olap/trace (the
// engine wires its tracer's WriteJSON here). Nil-safe; nil fn removes
// the endpoint (404).
func (o *Observer) SetTraceSource(fn func(io.Writer) error) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.traceSource = fn
	o.mu.Unlock()
}

// Handler serves the observability dashboard:
//
//	/debug/olap/queries  in-flight queries with live counters
//	/debug/olap/hist     latency/row-count histograms with p50/p90/p99
//	/debug/olap/slowlog  retained slow-query records
//	/debug/olap/mem      memory pool and spill store (when registered)
//	/debug/olap/trace    Chrome trace_event download (when registered)
//
// Each endpoint returns JSON by default and plain text with
// ?format=text. Mount at /debug/olap/ (trailing slash). Nil-safe: a
// nil observer serves 503 on every path.
func (o *Observer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if o == nil {
			http.Error(w, "observability not enabled", http.StatusServiceUnavailable)
			return
		}
		asText := r.URL.Query().Get("format") == "text"
		writeJSON := func(v any) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(v)
		}
		writeText := func(s string) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(s))
		}
		switch strings.TrimSuffix(strings.TrimPrefix(r.URL.Path, "/debug/olap/"), "/") {
		case "queries":
			if asText {
				writeText(o.FormatInFlight())
				return
			}
			live := o.InFlight()
			if live == nil {
				live = []LiveSnapshot{}
			}
			writeJSON(live)
		case "hist":
			if asText {
				writeText(FormatHistograms(o.Histograms()))
				return
			}
			writeJSON(o.Histograms())
		case "slowlog":
			if asText {
				writeText(o.slowlog.Format())
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = o.slowlog.WriteJSON(w)
		case "mem":
			o.mu.Lock()
			src := o.memSource
			o.mu.Unlock()
			if src == nil {
				http.NotFound(w, r)
				return
			}
			writeJSON(src())
		case "trace":
			o.mu.Lock()
			src := o.traceSource
			o.mu.Unlock()
			if src == nil {
				http.NotFound(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="olap-trace.json"`)
			if err := src(w); err != nil {
				// Headers are gone; the truncated body is Perfetto's
				// problem to reject. Nothing useful to do here.
				return
			}
		default:
			http.NotFound(w, r)
		}
	})
}
