// Command olapql is an interactive SQL shell over the gmdj engine.
//
// Usage:
//
//	olapql [-data netflow|tpcr|none] [-scale f] [-strategy s] [-parallel n]
//	       [-timeout d] [-max-rows n] [-max-mem bytes]
//	       [-mem-limit bytes] [-spill-dir dir] [-admission-timeout d]
//	       [-data-dir dir] [-plancache bytes]
//	       [-explain] [-trace out.json] [-metrics-addr :8080]
//	       [-slowlog out.json] [-slow-ms n] [-profile-dir dir]
//
// Durability: -data-dir persists every table as checksummed columnar
// segments under the given directory and recovers whatever a previous
// run committed there on startup (corrupt segments quarantine their
// tables instead of failing the open; the recovery summary is printed
// on stderr). Checkpoints are transparent — the first query after any
// write commits a new manifest generation — and explicit via
// \checkpoint; \segments shows each table's durable state.
//
// Caching: the parameterized plan cache is on by default (-plancache
// sets its byte budget; negative disables it); \caches shows its
// hit/miss/eviction counters.
//
// Memory-adaptive execution: -mem-limit bounds tracked operator state
// across all concurrent queries; under the limit, GMDJ state spills to
// temp files under -spill-dir instead of failing
// (an empty -spill-dir disables spilling, turning exhaustion into a
// hard abort), and queries queue up to -admission-timeout for pool capacity
// before being shed. \mem shows the pool and spill-store counters.
//
// Observability: -explain (with -e) prints the EXPLAIN ANALYZE plan —
// per-operator wall time, act=/est= cardinalities with cost-model
// drift flags, bytes, and counters — alongside the result; -trace
// records spans for every query and writes Chrome trace_event JSON on
// exit (load in https://ui.perfetto.dev); -metrics-addr serves the
// DB's event counters at /debug/vars (expvar "gmdj"), the Prometheus text
// exposition of the gmdj_* families at /metrics, plus the live
// workload dashboard at /debug/olap/queries (in-flight queries with
// advancing row counters), /debug/olap/hist (latency/row histograms),
// and /debug/olap/slowlog (append ?format=text for plain text); -slowlog
// writes the slow-query log — SQL, strategy, outcome, full stats tree
// per query at least -slow-ms slow — as JSON on exit.
//
// Meta commands inside the shell:
//
//	\tables              list tables
//	\strategy <name>     switch evaluation strategy (native, unnest, gmdj, gmdj-opt, auto)
//	\explain <query>     show the physical plan for the current strategy
//	\explain analyze <q> run the query, show the plan annotated with runtime stats
//	\prepare <query>     compile a statement with ? or $n placeholders
//	\execute <args...>   run the prepared statement with bound arguments
//	                     ('quoted' strings, numbers, true/false, null)
//	\caches              show plan-cache counters
//	\mem                 show memory-pool and spill-store counters
//	\stats               show process-wide engine counters
//	\hist                show workload latency/row histograms (p50/p90/p99)
//	\slowlog             show the slow-query log, newest first
//	\live                show in-flight queries with live progress counters
//	\profile             capture CPU/heap/goroutine/mutex profiles now
//	                     (needs -profile-dir; prints the ring paths)
//	\checkpoint          commit a manifest generation now (needs -data-dir)
//	\segments            show each table's durable segment state
//	\quit                exit
//
// Any other input line is executed as SQL.
//
// Exit codes (one-shot -e mode), so scripts can tell a governed abort
// from a crash:
//
//	0  success
//	1  query or statement error
//	2  usage error
//	3  query exceeded -timeout
//	4  query canceled (interrupt)
//	5  query exceeded -max-rows
//	6  query exceeded -max-mem
//	7  internal error (operator panic, recovered)
//	8  spill I/O failure (disk full, corrupt spill file)
//	9  admission timeout (memory pool contended; query shed)
//	10 database closed while the query waited for admission
//	13 durable segment corrupt (query touched a quarantined table)
package main

import (
	"bufio"
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/obs/profile"
)

// exitUsage is the shell's own exit code; a failed query exits with
// gmdj.Classify's (the package comment lists them).
const exitUsage = 2

func main() {
	data := flag.String("data", "netflow", "sample dataset to preload: netflow, tpcr, or none")
	scale := flag.Float64("scale", 1.0, "sample dataset scale factor")
	strategy := flag.String("strategy", "gmdj-opt", "evaluation strategy: native, unnest, gmdj, gmdj-opt, auto")
	parallel := flag.Int("parallel", 0, "morsel-driven execution degree (1 = serial, 0 = default: GOMAXPROCS or GMDJ_PARALLEL)")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock budget (0 = none)")
	maxRows := flag.Int64("max-rows", 0, "per-query cap on materialized rows (0 = none)")
	maxMem := flag.Int64("max-mem", 0, "per-query cap on approximate materialized bytes (0 = none)")
	memLimit := flag.Int64("mem-limit", 0, "engine-wide tracked-state memory pool in bytes; queries spill or queue under pressure (0 = untracked)")
	spillDir := flag.String("spill-dir", "auto", "spill scratch root ('auto' = system temp dir, '' disables spilling: exhaustion kills the query)")
	admission := flag.Duration("admission-timeout", 0, "how long a query may queue for pool memory before being shed (0 = 10s default)")
	dataDir := flag.String("data-dir", "", "persist tables as columnar segments under this directory, recovering committed state on startup ('' = in-memory only)")
	planCacheBytes := flag.Int64("plancache", 0, "parameterized plan cache byte budget (0 = default 16 MiB, negative disables)")
	execQuery := flag.String("e", "", "execute one query and exit")
	explain := flag.Bool("explain", false, "with -e: print the EXPLAIN ANALYZE plan alongside the result")
	traceOut := flag.String("trace", "", "record query spans and write Chrome trace_event JSON to this file on exit")
	metricsAddr := flag.String("metrics-addr", "", "serve engine metrics over HTTP at this address (expvar at /debug/vars, live dashboard at /debug/olap/)")
	slowlogOut := flag.String("slowlog", "", "write the slow-query log as JSON to this file on exit")
	slowMS := flag.Int64("slow-ms", 0, "slow-query threshold in milliseconds (0 logs every query)")
	profileDir := flag.String("profile-dir", "", "run the continuous profiler with its on-disk ring rooted here ('' disables); \\profile captures on demand")
	flag.Parse()

	opts := []gmdj.Option{
		gmdj.WithParallelism(*parallel),
		gmdj.WithBudget(gmdj.Budget{Timeout: *timeout, MaxRows: *maxRows, MaxMemBytes: *maxMem}),
		gmdj.WithPlanCache(*planCacheBytes),
	}
	if *memLimit > 0 {
		opts = append(opts, gmdj.WithMemoryLimit(*memLimit))
		if *admission > 0 {
			opts = append(opts, gmdj.WithAdmissionTimeout(*admission))
		}
	}
	if *spillDir != "auto" {
		opts = append(opts, gmdj.WithSpillDir(*spillDir))
	}
	var db *gmdj.DB
	switch *data {
	case "netflow":
		db = gmdj.OpenNetflowSample(int(50_000**scale), opts...)
	case "tpcr":
		db = gmdj.OpenTPCRSample(*scale, opts...)
	case "none":
		db = gmdj.Open(opts...)
	default:
		fmt.Fprintf(os.Stderr, "olapql: unknown dataset %q\n", *data)
		os.Exit(exitUsage)
	}

	strat, err := gmdj.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapql:", err)
		os.Exit(exitUsage)
	}

	if *dataDir != "" {
		// Recovery happens after the sample loaders so a recovered table
		// wins over (replaces) a same-named sample.
		rep, err := db.SetDataDir(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
			db.Close()
			os.Exit(exitUsage)
		}
		fmt.Fprintf(os.Stderr, "olapql: recovered generation %d: %d tables, %d quarantined, %d manifests skipped\n",
			rep.Generation, len(rep.Tables), len(rep.Quarantined), rep.SkippedManifests)
		for _, q := range rep.Quarantined {
			fmt.Fprintf(os.Stderr, "olapql: quarantined %s (%s): %s\n", q.Table, q.File, q.Reason)
		}
	}

	if *traceOut != "" {
		db.EnableTracing(0)
	}
	// Workload observability is wanted by the slow-query log flags and
	// by the live dashboard the metrics server mounts. An explicit
	// -slow-ms 0 means "log every query", so distinguish it from the
	// unset default.
	slowMSSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "slow-ms" {
			slowMSSet = true
		}
	})
	if *slowlogOut != "" || slowMSSet || *metricsAddr != "" {
		db.EnableObservability(gmdj.ObsConfig{
			SlowQueryThreshold: time.Duration(*slowMS) * time.Millisecond,
		})
	}
	// writeTrace and writeSlowLog flush before any exit path (os.Exit
	// skips defers).
	writeTrace := func() {
		if *traceOut == "" {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
			return
		}
		defer f.Close()
		if err := db.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
		}
	}
	writeSlowLog := func() {
		if *slowlogOut == "" {
			return
		}
		f, err := os.Create(*slowlogOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
			return
		}
		defer f.Close()
		if err := db.WriteSlowLog(f); err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
		}
	}
	var profiler *profile.Profiler
	if *profileDir != "" {
		var err error
		profiler, err = profile.New(profile.Config{Dir: *profileDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
			db.Close()
			os.Exit(exitUsage)
		}
		profiler.Start()
	}
	// flush also closes the DB so the scratch spill directory (if any)
	// is removed and unflushed writes reach the data directory on every
	// exit path, and stops the profiler so its last capture cycle
	// finishes before the ring is read.
	flush := func() {
		writeTrace()
		writeSlowLog()
		if profiler != nil {
			profiler.Close()
		}
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
		}
	}
	if *metricsAddr != "" {
		// Importing expvar registers /debug/vars on the default mux; the
		// DB's counters are published there as "gmdj". The live workload
		// dashboard mounts next to it under /debug/olap/, and the
		// Prometheus text exposition of the engine families at /metrics.
		expvar.Publish("gmdj", expvar.Func(func() any { return db.Metrics() }))
		http.Handle("/debug/olap/", db.ObsHTTPHandler())
		http.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", gmdj.PromContentType)
			if err := db.WritePromMetrics(w); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		go func() {
			if err := http.ListenAndServe(*metricsAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "olapql: metrics server:", err)
			}
		}()
	}

	if *execQuery != "" {
		// Interrupt cancels the running query (exit 4) rather than
		// killing the process mid-evaluation.
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stopSignals()
		var res *gmdj.Result
		var err error
		if *explain {
			var plan string
			res, plan, err = db.QueryAnalyzeContext(ctx, *execQuery, strat)
			if err == nil {
				fmt.Print(plan)
				fmt.Println()
			}
		} else {
			res, err = db.ExecStrategyContext(ctx, *execQuery, strat)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapql:", err)
			flush()
			os.Exit(gmdj.Classify(err).ExitCode)
		}
		if res != nil {
			printResult(res)
		}
		flush()
		return
	}

	fmt.Printf("olapql — GMDJ subquery engine (strategy: %v)\n", strat)
	fmt.Printf("tables: %s\n", strings.Join(db.Tables(), ", "))
	fmt.Println(`type SQL, or \tables, \strategy <s>, \explain [analyze] <q>, \prepare <q>, \execute <args>, \caches, \mem, \stats, \hist, \slowlog, \live, \profile, \checkpoint, \segments, \quit`)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	defer flush()
	var prepared *gmdj.Stmt
	for {
		fmt.Print("olap> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\quit` || line == `\q`:
			return
		case line == `\tables`:
			for _, t := range db.Tables() {
				fmt.Println(" ", t)
			}
		case line == `\stats`:
			printMetrics(db.Metrics())
		case line == `\caches`:
			printCacheStats(db)
		case line == `\mem`:
			printMemStats(db)
		case line == `\checkpoint`:
			gen, err := db.Checkpoint()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("  committed generation %d\n", gen)
		case line == `\segments`:
			printSegments(db)
		case line == `\hist`:
			fmt.Print(db.FormatHistograms())
		case line == `\slowlog`:
			fmt.Print(db.FormatSlowLog())
		case line == `\live`:
			fmt.Print(db.FormatLiveQueries())
		case line == `\profile`:
			if profiler == nil {
				fmt.Println("  profiling off (run with -profile-dir)")
				continue
			}
			paths, err := profiler.CaptureNow(time.Second)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			for _, p := range paths {
				fmt.Println(" ", p)
			}
		case strings.HasPrefix(line, `\strategy`):
			arg := strings.TrimSpace(strings.TrimPrefix(line, `\strategy`))
			if s, err := gmdj.ParseStrategy(arg); err == nil {
				strat = s
				fmt.Printf("strategy: %v\n", strat)
			} else {
				fmt.Printf("%v (native, unnest, gmdj, gmdj-opt, auto)\n", err)
			}
		case strings.HasPrefix(line, `\explain analyze`):
			q := strings.TrimSpace(strings.TrimPrefix(line, `\explain analyze`))
			out, err := db.ExplainAnalyze(q, strat)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, `\explain`):
			q := strings.TrimSpace(strings.TrimPrefix(line, `\explain`))
			plan, err := db.Explain(q, strat)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(plan)
		case strings.HasPrefix(line, `\prepare`):
			q := strings.TrimSpace(strings.TrimPrefix(line, `\prepare`))
			if q == "" {
				fmt.Println(`usage: \prepare <query with ? or $n placeholders>`)
				continue
			}
			st, err := db.PrepareStrategy(q, strat)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if prepared != nil {
				prepared.Close()
			}
			prepared = st
			fmt.Printf("prepared (%d params); run \\execute <args...>\n", st.NumParams())
		case strings.HasPrefix(line, `\execute`):
			if prepared == nil {
				fmt.Println(`no prepared statement; run \prepare <query> first`)
				continue
			}
			args, err := splitArgs(strings.TrimSpace(strings.TrimPrefix(line, `\execute`)))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			res, err := prepared.Query(args...)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			printResult(res)
		default:
			res, err := db.ExecStrategy(line, strat)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			if res == nil {
				fmt.Println("ok")
				continue
			}
			printResult(res)
		}
	}
}

func printMemStats(db *gmdj.DB) {
	m := db.MemStats()
	if !m.Enabled {
		fmt.Println("  memory tracking off (run with -mem-limit)")
		return
	}
	fmt.Printf("  pool:  capacity=%d in_use=%d queued=%d admitted=%d timed_out=%d\n",
		m.Capacity, m.InUse, m.Queued, m.Admitted, m.TimedOut)
	if !m.SpillEnabled {
		fmt.Println("  spill: disabled (exhaustion aborts the query)")
		return
	}
	fmt.Printf("  spill: dir=%s live_files=%d writes=%d reads=%d bytes_written=%d bytes_read=%d\n",
		m.SpillDir, m.SpillLiveFiles, m.SpillWrites, m.SpillReads, m.SpillBytesWritten, m.SpillBytesRead)
}

func printSegments(db *gmdj.DB) {
	ss := db.StorageStats()
	if !ss.Enabled {
		fmt.Println("  persistence off (run with -data-dir)")
		return
	}
	fmt.Printf("  dir=%s generation=%d checkpoints=%d bytes_written=%d bytes_read=%d\n",
		ss.Dir, ss.Generation, ss.Checkpoints, ss.BytesWritten, ss.BytesRead)
	for _, s := range db.Segments() {
		status := "ok"
		if s.Quarantined {
			status = "QUARANTINED: " + s.Reason
		}
		fmt.Printf("  %-20s rows=%-8d files=%-3d %s\n", s.Table, s.Rows, s.Files, status)
	}
}

func printCacheStats(db *gmdj.DB) {
	p := db.PlanCacheStats()
	fmt.Printf("  plan cache: hits=%d misses=%d evictions=%d invalidations=%d entries=%d bytes=%d\n",
		p.Hits, p.Misses, p.Evictions, p.Invalidations, p.Entries, p.Bytes)
}

// splitArgs parses \execute arguments: whitespace- or comma-separated
// tokens; 'quoted' strings (” escapes a quote), integers, floats,
// true/false, and null; any other bare token is a string.
func splitArgs(s string) ([]any, error) {
	var args []any
	i := 0
	for i < len(s) {
		switch c := s[i]; {
		case c == ' ' || c == '\t' || c == ',':
			i++
		case c == '\'':
			var b strings.Builder
			i++
			for {
				j := strings.IndexByte(s[i:], '\'')
				if j < 0 {
					return nil, fmt.Errorf("unterminated string in arguments")
				}
				b.WriteString(s[i : i+j])
				i += j + 1
				if i < len(s) && s[i] == '\'' {
					b.WriteByte('\'')
					i++
					continue
				}
				break
			}
			args = append(args, b.String())
		default:
			j := i
			for j < len(s) && s[j] != ' ' && s[j] != '\t' && s[j] != ',' {
				j++
			}
			tok := s[i:j]
			i = j
			switch strings.ToLower(tok) {
			case "true":
				args = append(args, true)
			case "false":
				args = append(args, false)
			case "null":
				args = append(args, nil)
			default:
				if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
					args = append(args, n)
				} else if f, err := strconv.ParseFloat(tok, 64); err == nil {
					args = append(args, f)
				} else {
					args = append(args, tok)
				}
			}
		}
	}
	return args, nil
}

func printMetrics(snap map[string]int64) {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %d\n", k, snap[k])
	}
}

func printResult(res *gmdj.Result) {
	widths := make([]int, len(res.Columns))
	for i, c := range res.Columns {
		widths[i] = len(c)
	}
	const maxRows = 40
	n := len(res.Rows)
	shown := n
	if shown > maxRows {
		shown = maxRows
	}
	cells := make([][]string, shown)
	for i := 0; i < shown; i++ {
		row := make([]string, len(res.Rows[i]))
		for j, v := range res.Rows[i] {
			if v == nil {
				row[j] = "NULL"
			} else {
				row[j] = fmt.Sprint(v)
			}
			if len(row[j]) > widths[j] {
				widths[j] = len(row[j])
			}
		}
		cells[i] = row
	}
	line := func(parts []string) {
		for j, p := range parts {
			if j > 0 {
				fmt.Print(" | ")
			}
			fmt.Printf("%-*s", widths[j], p)
		}
		fmt.Println()
	}
	line(res.Columns)
	for j, w := range widths {
		if j > 0 {
			fmt.Print("-+-")
		}
		fmt.Print(strings.Repeat("-", w))
	}
	fmt.Println()
	for _, row := range cells {
		line(row)
	}
	if n > shown {
		fmt.Printf("... (%d more rows)\n", n-shown)
	}
	fmt.Printf("(%d rows)\n", n)
}
