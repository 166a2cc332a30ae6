package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricSpec names one metric; BENCHMARK.json lists the same names and
// units (a test holds the two together).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"alloc_kb_per_query", "KiB"},
	{"setup_s", "s"},
}

var perLayer = []metricSpec{
	{"sql.parse_us", "us"}, {"sql.normalize_us", "us"},
	{"plancache.hit_ratio", "ratio"}, {"plancache.evictions", "count"},
	{"rewrite.plan_us", "us"},
	{"exec.scan_ms", "ms"}, {"exec.rest_ms", "ms"}, {"exec.rows_scanned", "count"}, {"exec.blocks_pruned_ratio", "ratio"},
	{"gmdj.eval_ms", "ms"}, {"gmdj.probes_per_detail_row", "ratio"}, {"gmdj.completed_ratio", "ratio"},
	{"gmdj.short_circuit_ratio", "ratio"}, {"gmdj.detail_scans", "count"}, {"gmdj.workers", "count"},
	{"spill.partitions", "count"}, {"spill.kb_written_per_query", "KiB"}, {"spill.extra_detail_scans", "count"},
	{"mem.admitted", "count"}, {"mem.timed_out", "count"},
	{"storage.checkpoint_ms", "ms"}, {"storage.recover_ms", "ms"}, {"storage.decode_ms", "ms"},
	{"storage.bytes_written_per_user_byte", "ratio"}, {"storage.bytes_on_disk_per_user_byte", "ratio"},
	{"engine.overhead_us", "us"},
	{"serve.handler_us", "us"}, {"serve.http_us", "us"}, {"serve.shed_ratio", "ratio"},
	{"trace.unattributed_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

// A run opens the system from scratch several times and reports the
// median as setup_s, so one slow burst does not set it: at least
// setupRepeatsMin times, and as many more as fit in setupBudget, because
// a 50 ms set-up needs more repetitions than a 1.5 s one to settle.
const (
	setupRepeatsMin = 3
	setupRepeatsMax = 15
	setupBudget     = 1500 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// units maps every declared metric to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, spec := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		m[spec.name] = spec.unit
	}
	return m
}()

// set records a metric under its declared unit; reporting a metric
// BENCHMARK.json does not list is a bug in the harness.
func (r *record) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic("bench: unlisted metric " + name)
	}
	r.Metrics[name] = metricValue{v, unit}
}

// stamp is the environment a result was measured in. compare refuses
// to set two results side by side unless everything but the commit
// agrees.
type stamp struct {
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOGC       string  `json:"gogc"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	// SeqHash digests the first cycles of the operation sequence.
	SeqHash string `json:"seq_hash"`
}

// record is one run's result, as `-out` appends it and compare reads
// it.
type record struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Stamp     stamp                  `json:"stamp"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info carries what is reported but not gated: the tail latency,
	// sample counts, per-class medians, layer shares.
	Info map[string]float64 `json:"info,omitempty"`
	// Counts are the traced pass's work counts. With one client they
	// repeat exactly from run to run of the same commit and seed.
	Counts map[string]int64 `json:"counts,omitempty"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	outDir   string // scratch directories and trace files go here
	log      io.Writer
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git work tree, as the benchmark's driver does
}

func newStamp(cfg config, w workload) stamp {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return stamp{
		Commit: commit(), Seed: cfg.seed, Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOGC: gogc, Clients: w.clients(),
		Seconds: cfg.seconds, Scale: cfg.scale, SeqHash: sequenceHash(w, 8),
	}
}

// checkEnv refuses to measure under any GMDJ_* variable: GMDJ_PARALLEL,
// GMDJ_MEM, GMDJ_DATA_DIR, GMDJ_OBS and GMDJ_FAULTS each silently
// change what the engine does.
func checkEnv() error {
	for _, kv := range os.Environ() {
		if strings.HasPrefix(kv, "GMDJ_") {
			name, _, _ := strings.Cut(kv, "=")
			return fmt.Errorf("%s is set; the benchmark measures the engine's defaults and refuses to run under any GMDJ_* variable", name)
		}
	}
	return nil
}

// runWorkload performs one run and returns its record.
func runWorkload(cfg config) (*record, error) {
	w, err := newWorkload(cfg.workload, cfg.trace == 1)
	if err != nil {
		return nil, err
	}
	if err := w.prepare(cfg.seed, cfg.scale); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", cfg.workload, err)
	}
	rec := &record{Workload: cfg.workload, Trace: cfg.trace, Stamp: newStamp(cfg, w),
		Metrics: map[string]metricValue{}, Info: map[string]float64{}}
	fmt.Fprintf(cfg.log, "workload %s  seed %d  clients %d (closed loop)  scale %g  commit %s  nproc %d  GOMAXPROCS %d  %s  GOGC %s  seq %s\n",
		rec.Workload, rec.Stamp.Seed, rec.Stamp.Clients, rec.Stamp.Scale, rec.Stamp.Commit, rec.Stamp.Nproc,
		rec.Stamp.GOMAXPROCS, rec.Stamp.GoVersion, rec.Stamp.GOGC, rec.Stamp.SeqHash)

	repeats := setupRepeatsMin
	if cfg.trace == 1 {
		repeats = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}
	var s sut
	var dir string
	var cleanup func()
	var setups []float64
	for rep := 0; rep < repeats; rep++ {
		if rep == 1 && cfg.trace == 0 {
			if fit := int(setupBudget.Seconds() / setups[0]); fit > repeats {
				repeats = min(fit, setupRepeatsMax)
			}
		}
		if s != nil {
			if err := s.close(); err != nil {
				cleanup()
				return nil, fmt.Errorf("%s: close: %w", cfg.workload, err)
			}
			cleanup()
		}
		if dir, cleanup, err = scratch(cfg.outDir, cfg.workload); err != nil {
			return nil, err
		}
		start := time.Now()
		if s, err = w.open(dir); err != nil {
			cleanup()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cleanup()
	defer s.close()

	if cfg.trace == 1 {
		err = reportTraced(cfg, w, s, dir, rec)
	} else {
		reportTimed(cfg, w, s, setups, rec)
	}
	return rec, err
}

// reportTimed runs the timed sequence and fills in the end-to-end
// metrics.
func reportTimed(cfg config, w workload, s sut, setups []float64, rec *record) {
	m := runTimed(w, s, cfg.seconds)
	rec.Attempted, rec.Failed, rec.Correct = m.attempted, m.failed, m.failed == 0
	p50, samples := classMedianMean(m.latencies, 50)
	queries := float64(m.queriesOK)
	rec.set("query_p50_ms", p50)
	rec.set("queries_per_s", ratio(queries, m.elapsed.Seconds()))
	rec.set("alloc_kb_per_query", ratio(m.allocKB, queries))
	rec.set("setup_s", median(setups))
	rec.Info["query_samples"] = float64(samples)
	rec.Info["cycles"] = float64(m.cycles)
	rec.Info["elapsed_s"] = m.elapsed.Seconds()

	fmt.Fprintf(cfg.log, "ops_attempted %d  ops_failed %d  cycles %d  elapsed %.3f s\n", m.attempted, m.failed, m.cycles, m.elapsed.Seconds())
	if m.firstErr != nil {
		fmt.Fprintf(cfg.log, "first failure: %v\n", m.firstErr)
	}
	fmt.Fprintf(cfg.log, "query_p50_ms %.4f ms  (%d samples; each class's median, weighted by its share)\n", p50, samples)
	for ci, name := range w.classes() {
		if l := m.latencies[ci]; len(l) > 0 {
			rec.Info["p50_ms."+name] = median(l)
			fmt.Fprintf(cfg.log, "  %-22s p50 %9.4f ms  n %d\n", name, median(l), len(l))
		}
	}
	if p, ok := tailPercentile(samples); ok {
		tail, _ := classMedianMean(m.latencies, p)
		rec.Info["query_tail_ms"], rec.Info["query_tail_percentile"] = tail, p
		fmt.Fprintf(cfg.log, "query_tail_ms %.4f ms  (p%g over %d samples; reported, not gated)\n", tail, p, samples)
	} else {
		fmt.Fprintf(cfg.log, "query_tail_ms -  (%d samples leave fewer than 10 beyond any tail percentile)\n", samples)
	}
	fmt.Fprintf(cfg.log, "queries_per_s %.4f 1/s  (%d correct queries over the whole sequence, writes and recovery included)\n",
		rec.Metrics["queries_per_s"].Value, m.queriesOK)
	fmt.Fprintf(cfg.log, "alloc_kb_per_query %.4f KiB\n", rec.Metrics["alloc_kb_per_query"].Value)
	fmt.Fprintf(cfg.log, "setup_s %.4f s  (median of %d set-ups: %.3f)\n", median(setups), len(setups), setups)
	if _, ok := w.(*durableWorkload); ok {
		fmt.Fprintln(cfg.log, "flush policy: the store's own (fsync on every segment, manifest and directory); latencies are this sandbox's page cache's, not a device's")
	}
}

// reportTraced runs the traced pass, writes the trace file and fills in
// the per-layer metrics. Times are per-query means over the traced
// queries (a stage's total time divided by the number of queries), so
// the layers add up to the query and to each other; the end-to-end
// medians come from the timed run, not from here.
func reportTraced(cfg config, w workload, s sut, dir string, rec *record) error {
	st, err := w.newStager(filepath.Join(dir, "stager"))
	if err != nil {
		return fmt.Errorf("%s: stager: %w", cfg.workload, err)
	}
	defer st.close()
	c0 := s.counters()
	p := runTraced(w, s, st, cfg.seconds)
	c1 := s.counters()
	rec.Attempted, rec.Failed, rec.Correct = p.attempted, p.failed, p.failed == 0
	fmt.Fprintf(cfg.log, "traced pass: ops_attempted %d  ops_failed %d  queries %d  cycles %d\n", p.attempted, p.failed, len(p.queries), p.cyclesDone)
	if p.firstErr != nil {
		fmt.Fprintf(cfg.log, "first failure: %v\n", p.firstErr)
	}
	tracePath := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	if err := st.rec.write(tracePath); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(cfg.log, "trace: %s (%d spans)\n", tracePath, len(st.rec.spans))

	set := rec.set
	// Every per-layer metric is reported on every workload; a layer the
	// workload does not reach reads 0.
	for _, spec := range perLayer {
		set(spec.name, 0)
	}

	// Totals over the traced queries.
	stage := map[string]time.Duration{} // by span name
	layer := map[string]time.Duration{} // self time by layer
	var client, direct, traced, unattributed time.Duration
	// Differences between two separate executions of one statement carry
	// both executions' noise, which a long statement's few milliseconds
	// of jitter would dominate in a mean; these are medians of the
	// per-statement differences instead.
	var engineDiff, handlerDiff, httpDiff []float64
	var g struct{ probes, detailRows, completed, base, short, detail, spillBytes, spillParts, extraScans, scanned int64 }
	classes := w.classes()
	pruned, blocks := make([]int64, len(classes)), make([]int64, len(classes))
	workers := 1
	for _, q := range p.queries {
		root := q.st.root
		traced += st.rec.spans[root].dur()
		var nonEngine time.Duration
		for _, c := range st.rec.children(root) {
			sp := &st.rec.spans[c]
			stage[sp.name] += sp.dur()
			if sp.layer() != "engine" {
				nonEngine += sp.dur()
			}
		}
		self, rest := st.rec.layerTimes(root)
		for l, d := range self {
			layer[l] += d
		}
		unattributed += rest
		client += q.real
		inDB := q.real
		if q.direct > 0 { // serve_small: the loopback request wraps the handler wraps DB.Query
			inDB = q.direct
			handlerDiff = append(handlerDiff, us(q.handler-q.direct))
			httpDiff = append(httpDiff, us(q.real-q.handler))
		}
		direct += inDB
		engineDiff = append(engineDiff, us(inDB-nonEngine))
		gs := &q.st.gstats
		g.probes += gs.Probes
		g.detailRows += gs.DetailRows
		g.completed += gs.Completed
		g.short += gs.ShortCircuitRows
		g.spillBytes += gs.SpillBytesWritten
		g.spillParts += gs.SpillPartitions
		g.extraScans += gs.ExtraDetailScans
		g.base += q.st.baseRows
		g.detail += q.st.detailRows
		g.scanned += q.st.rowsScanned
		pruned[q.class] += q.st.blocksPruned
		blocks[q.class] += q.st.blocksAll
		if q.st.workers > workers {
			workers = q.st.workers
		}
	}
	n := float64(len(p.queries))
	perQuery := func(d time.Duration, unit time.Duration) float64 { return ratio(float64(d)/float64(unit), n) }
	var prunedAll, blocksAll int64
	for ci := range classes {
		prunedAll += pruned[ci]
		blocksAll += blocks[ci]
	}
	// With one client the counts repeat exactly on the same commit and
	// seed; compare holds two runs to that.
	rec.Counts = map[string]int64{
		"queries": int64(len(p.queries)), "exec.rows_scanned": g.scanned, "exec.blocks_pruned": prunedAll,
		"gmdj.detail_rows": g.detailRows, "gmdj.short_circuit_rows": g.short, "gmdj.probes": g.probes,
		"gmdj.completed": g.completed, "spill.partitions": g.spillParts,
		"storage.checkpoints": int64(len(p.checkpoints)), "storage.recoveries": int64(len(p.recovers)),
	}

	set("sql.parse_us", perQuery(stage["sql.parse"], time.Microsecond))
	set("sql.normalize_us", perQuery(stage["sql.normalize"], time.Microsecond))
	set("rewrite.plan_us", perQuery(stage["rewrite.plan"], time.Microsecond))
	hits, misses := float64(c1.planHits-c0.planHits), float64(c1.planMisses-c0.planMisses)
	set("plancache.hit_ratio", ratio(hits, hits+misses))
	set("plancache.evictions", float64(c1.planEvictions-c0.planEvictions))
	set("exec.scan_ms", perQuery(stage["exec.scan"], time.Millisecond))
	set("exec.rest_ms", perQuery(stage["exec.rest"], time.Millisecond))
	set("exec.rows_scanned", ratio(float64(g.scanned), n))
	set("exec.blocks_pruned_ratio", ratio(float64(prunedAll), float64(blocksAll)))
	set("gmdj.eval_ms", perQuery(stage["gmdj.eval"], time.Millisecond))
	set("gmdj.probes_per_detail_row", ratio(float64(g.probes), float64(g.detailRows)))
	set("gmdj.completed_ratio", ratio(float64(g.completed), float64(g.base)))
	set("gmdj.short_circuit_ratio", ratio(float64(g.short), float64(g.detailRows+g.short)))
	set("gmdj.detail_scans", ratio(float64(g.detailRows+g.short), float64(g.detail)))
	set("gmdj.workers", float64(workers))
	set("spill.partitions", ratio(float64(g.spillParts), n))
	set("spill.kb_written_per_query", ratio(float64(g.spillBytes)/1024, n))
	set("spill.extra_detail_scans", ratio(float64(g.extraScans), n))
	set("mem.admitted", float64(c1.memAdmitted-c0.memAdmitted))
	set("mem.timed_out", float64(c1.memTimedOut-c0.memTimedOut))
	// What DB.Query spends outside the other layers' exported functions:
	// binding, the governor and observer hooks, result conversion.
	set("engine.overhead_us", medianOr0(engineDiff))
	set("trace.unattributed_frac", ratio(float64(unattributed), float64(traced)))
	set("trace.overhead_frac", ratio(float64(traced), float64(direct))-1)

	if dw, ok := w.(*durableWorkload); ok {
		user := float64(dw.userBytes(p.cyclesDone))
		set("storage.checkpoint_ms", medianOr0(millis(p.checkpoints)))
		set("storage.recover_ms", medianOr0(millis(p.recovers)))
		set("storage.decode_ms", medianOr0(millis(p.decodes)))
		set("storage.bytes_written_per_user_byte", ratio(float64(c1.bytesWritten), user))
		set("storage.bytes_on_disk_per_user_byte", ratio(float64(dirBytes(dir)), user)) // dir is the data directory
	}
	if h, ok := s.(*httpSUT); ok {
		set("serve.handler_us", medianOr0(handlerDiff))
		set("serve.http_us", medianOr0(httpDiff))
		var admitted, shed int64
		for _, t := range h.srv.Stats().Tenants {
			admitted += t.Admitted
			shed += t.Shed
		}
		set("serve.shed_ratio", ratio(float64(shed), float64(admitted+shed)))
	}

	// Where a query's time goes, as shares of what the client saw. With
	// one client nothing contends, so a layer's share is the most a
	// faster version of that layer could save.
	total := func(perQueryUs float64) time.Duration {
		return time.Duration(perQueryUs * n * float64(time.Microsecond))
	}
	layer["engine"] = total(medianOr0(engineDiff))
	layer["serve"] = total(medianOr0(handlerDiff) + medianOr0(httpDiff))
	fmt.Fprintf(cfg.log, "self time per query (means over %d traced queries; the client saw %.4f ms):\n", len(p.queries), perQuery(client, time.Millisecond))
	for _, l := range layerOrder {
		if d, ok := layer[l]; ok && d != 0 {
			rec.Info["share."+l] = ratio(float64(d), float64(client))
			fmt.Fprintf(cfg.log, "  %-10s %10.4f ms  %5.1f %%\n", l, perQuery(d, time.Millisecond), 100*ratio(float64(d), float64(client)))
		}
	}
	for ci, name := range classes {
		if blocks[ci] > 0 {
			rec.Info["blocks_pruned_ratio."+name] = ratio(float64(pruned[ci]), float64(blocks[ci]))
			if prunedAll > 0 {
				fmt.Fprintf(cfg.log, "  blocks pruned, %-12s %6d of %6d  (%.4f)\n", name, pruned[ci], blocks[ci], ratio(float64(pruned[ci]), float64(blocks[ci])))
			}
		}
	}
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(cfg.log, "%-38s %14.4f %s\n", name, rec.Metrics[name].Value, rec.Metrics[name].Unit)
	}
	if workers > 1 {
		fmt.Fprintf(cfg.log, "gmdj.workers %d: every worker scans the whole detail (gmdj.detail_scans), and the slowest sets gmdj.eval_ms\n", workers)
	}
	return nil
}
