package gmdj

import (
	"io"
	"strings"

	"github.com/olaplab/gmdj/internal/obs"
)

// Prometheus exposition of the engine-level telemetry. The serving
// layer (internal/serve) composes these families with its own
// per-tenant request metrics on olapd's /metrics endpoint; olapql's
// -metrics-addr serves them alone via WritePromMetrics. Everything is
// rendered with the repo's dependency-free writer (internal/obs/prom).

// PromContentType is the Content-Type header value for the Prometheus
// text exposition format served by WritePromMetrics.
const PromContentType = obs.PromContentType

// PromCollect appends the engine-level metric families to an
// exposition document under construction:
//
//	gmdj_engine_events_total{event=...}   every counter of this DB's
//	                                      Metrics snapshot (queries per
//	                                      strategy, governance trips,
//	                                      spill traffic, cache churn)
//	gmdj_plan_cache_*_total               plan-cache hits/misses/evictions
//	gmdj_mem_pool_*                       memory-pool gauges (when enabled)
//	gmdj_spill_bytes_{written,read}_total scratch-store traffic
//	gmdj_query_duration_seconds{strategy} latency histograms (observer)
//	gmdj_op_duration_seconds{kind}        per-operator-kind histograms
//
// Everything is per DB, and the events family and the typed families
// read the same fields (see engine.Engine.Metrics). extra is summed
// into the events family — the serving layer's serve.*/profile.*
// counters, so olapd exposes one family; nil for none.
//
// The concrete writer type is internal; callers outside this module
// use WritePromMetrics instead.
func (db *DB) PromCollect(p *obs.PromWriter, extra map[string]int64) {
	events := db.Metrics()
	for name, v := range extra {
		if v != 0 { // a zero counter has no key, here as in Metrics
			events[name] += v
		}
	}
	for name, v := range events {
		p.Counter("gmdj_engine_events_total", "Engine event counters of this database, by event.",
			map[string]string{"event": name}, v)
	}

	pc := db.PlanCacheStats()
	p.Counter("gmdj_plan_cache_hits_total", "Parameterized plan cache hits.", nil, pc.Hits)
	p.Counter("gmdj_plan_cache_misses_total", "Parameterized plan cache misses.", nil, pc.Misses)
	p.Counter("gmdj_plan_cache_evictions_total", "Parameterized plan cache evictions.", nil, pc.Evictions)
	p.Counter("gmdj_plan_cache_invalidations_total", "Parameterized plan cache schema invalidations.", nil, pc.Invalidations)

	// Pool families are emitted unconditionally (zero without a pool):
	// dashboards and olapcheck prom -require can rely on their presence, and
	// a pool enabled mid-fleet does not make series appear from nowhere.
	// gmdj_mem_pool_enabled distinguishes "no pool" from "idle pool".
	ms := db.MemStats()
	enabled := 0.0
	if ms.Enabled {
		enabled = 1
	}
	p.Gauge("gmdj_mem_pool_enabled", "1 when a tracked-state memory pool is configured.", nil, enabled)
	p.Gauge("gmdj_mem_pool_capacity_bytes", "Tracked-state memory pool capacity.", nil, float64(ms.Capacity))
	p.Gauge("gmdj_mem_pool_in_use_bytes", "Tracked-state memory pool bytes in use.", nil, float64(ms.InUse))
	p.Gauge("gmdj_mem_pool_queued", "Queries queued for pool admission (waiting admission waiters).", nil, float64(ms.Queued))
	p.Counter("gmdj_mem_pool_admitted_total", "Queries admitted to the memory pool.", nil, ms.Admitted)
	p.Counter("gmdj_mem_pool_timed_out_total", "Queries shed at the admission deadline.", nil, ms.TimedOut)
	p.Counter("gmdj_spill_bytes_written_total", "Bytes written to the scratch spill store.", nil, ms.SpillBytesWritten)
	p.Counter("gmdj_spill_bytes_read_total", "Bytes read back from the scratch spill store.", nil, ms.SpillBytesRead)
	p.Gauge("gmdj_spill_live_files", "Live files in the scratch spill store.", nil, float64(ms.SpillLiveFiles))

	// Storage families appear only when a data directory is configured,
	// mirroring how the serving layer gates optional families: a purely
	// in-memory deployment's exposition (and the golden test pinning it)
	// stays byte-stable, while any persistent deployment always exports
	// the full set (zeros included).
	if ss := db.StorageStats(); ss.Enabled {
		p.Gauge("olap_storage_generation", "Committed manifest generation of the durable store.", nil, float64(ss.Generation))
		p.Gauge("olap_storage_tables", "Tables in the committed generation.", nil, float64(ss.Tables))
		p.Gauge("olap_storage_quarantined_tables", "Tables currently quarantined by segment verification failures.", nil, float64(ss.QuarantinedTables))
		p.Counter("olap_storage_segments_written_total", "Segment files persisted by checkpoints.", nil, ss.SegmentsWritten)
		p.Counter("olap_storage_segments_recovered_total", "Segment files read back intact during recovery.", nil, ss.SegmentsRecovered)
		p.Counter("olap_storage_segments_quarantined_total", "Segment verification failures that quarantined a table.", nil, ss.Quarantined)
		p.Counter("olap_storage_checkpoints_total", "Committed checkpoint generations.", nil, ss.Checkpoints)
		p.Counter("olap_storage_recoveries_total", "Data-directory opens (recovery passes).", nil, ss.Recoveries)
		p.Counter("olap_storage_manifests_skipped_total", "Torn manifest commits recovery walked past.", nil, ss.SkippedManifests)
		p.Counter("olap_storage_bytes_written_total", "Bytes written to the durable store.", nil, ss.BytesWritten)
		p.Counter("olap_storage_bytes_read_total", "Bytes read back from the durable store.", nil, ss.BytesRead)
	}

	for key, snap := range db.eng.Observer().Histograms() {
		switch {
		case strings.HasPrefix(key, "query_ns."):
			p.Histogram("gmdj_query_duration_seconds", "Query wall time by strategy.",
				map[string]string{"strategy": strings.TrimPrefix(key, "query_ns.")}, snap, 1e-9)
		case strings.HasPrefix(key, "op_ns."):
			p.Histogram("gmdj_op_duration_seconds", "Inclusive operator wall time by operator kind.",
				map[string]string{"kind": strings.TrimPrefix(key, "op_ns.")}, snap, 1e-9)
		}
	}
}

// WritePromMetrics writes the engine-level metric families as one
// Prometheus text-format (0.0.4) exposition document — what olapql's
// -metrics-addr serves at /metrics. olapd embedders get these plus the
// serving-layer families from the server's own /metrics endpoint.
func (db *DB) WritePromMetrics(w io.Writer) error {
	p := obs.NewPromWriter()
	db.PromCollect(p, nil)
	if err := p.Err(); err != nil {
		return err
	}
	_, err := p.WriteTo(w)
	return err
}
