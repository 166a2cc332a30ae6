package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	gmdj "github.com/olaplab/gmdj"
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opCheckpoint
	opReopen
)

// op is one operation of a workload's sequence.
type op struct {
	kind opKind
	// class indexes the workload's latency classes (query ops only).
	// Shapes differ severalfold in cost, so a median over all queries
	// would sit on the boundary between two shapes and jump with the
	// mix; latency is kept per class instead.
	class int
	// sql is the query text. When fresh is set, every freshAlias token in
	// it is replaced by a table alias never used before, which makes the
	// statement miss the normalised plan cache each time it is issued.
	sql   string
	fresh bool
	// key names the oracle entry the result must match ("" = unchecked).
	key string
	// rows is the payload of an insert.
	rows [][]any
}

// text renders the statement for one issue; uniq must not repeat within
// a process.
func (o *op) text(uniq uint64) string {
	if !o.fresh {
		return o.sql
	}
	return strings.ReplaceAll(o.sql, freshAlias, fmt.Sprintf("q%d", uniq))
}

// workload is one of the benchmark's traffic mixes. prepare is harness
// work (input generation, oracle) and is not charged to setup_s; open
// is the program's work (load, index, checkpoint, recovery, server
// boot, warm-up) and is.
type workload interface {
	// classes names the latency classes in op.class order.
	classes() []string
	clients() int
	// maxCycles bounds a client's sequence (0 = unbounded). Only
	// durable_mix is bounded: its table state changes every cycle, so
	// its oracle is computed for a fixed number of cycles ahead.
	maxCycles() int
	prepare(seed uint64, scale float64) error
	open(dir string) (sut, error)
	// cycle returns the i-th cycle of one client's sequence; it depends
	// on the seed, the client and i only, so it can be called in any
	// order.
	cycle(client, i int) []op
	// newStager builds the traced pass's copy of the inputs behind the
	// layers' exported functions.
	newStager(dir string) (*stager, error)
	orc() oracle
	// inputs returns the generated tables (nil where the data is the
	// engine's own fixed sample).
	inputs() []*table
}

// sut is an opened system under test.
type sut interface {
	// exec performs one operation for one client. For a query it
	// returns the digest of the rows and the latency the client saw.
	exec(client int, o *op, uniq uint64) (expect, time.Duration, error)
	// counters snapshots the database's cumulative statistics.
	counters() sutCounters
	close() error
}

// sutCounters are the cumulative engine statistics the traced pass
// takes deltas of.
type sutCounters struct {
	planHits, planMisses, planEvictions int64
	memAdmitted, memTimedOut            int64
	bytesWritten                        int64 // durable store
}

func countersOf(db *gmdj.DB) sutCounters {
	pc, mem := db.PlanCacheStats(), db.MemStats()
	return sutCounters{
		planHits: pc.Hits, planMisses: pc.Misses, planEvictions: pc.Evictions,
		memAdmitted: mem.Admitted, memTimedOut: mem.TimedOut,
		bytesWritten: db.StorageStats().BytesWritten,
	}
}

func (c sutCounters) plus(d sutCounters) sutCounters {
	return sutCounters{
		planHits: c.planHits + d.planHits, planMisses: c.planMisses + d.planMisses,
		planEvictions: c.planEvictions + d.planEvictions,
		memAdmitted:   c.memAdmitted + d.memAdmitted, memTimedOut: c.memTimedOut + d.memTimedOut,
		bytesWritten: c.bytesWritten + d.bytesWritten,
	}
}

// libSUT drives gmdj.DB directly, one client.
type libSUT struct {
	db *gmdj.DB
	// dir is the data directory (durable_mix only); acked counts the
	// orders rows whose insert returned, which recovery must bring back;
	// carried sums the counters of the databases closed by reopen, since
	// a reopened database counts from zero.
	dir     string
	acked   int
	carried sutCounters
}

func (s *libSUT) counters() sutCounters { return s.carried.plus(countersOf(s.db)) }
func (s *libSUT) close() error          { return s.db.Close() }

func (s *libSUT) exec(_ int, o *op, uniq uint64) (expect, time.Duration, error) {
	switch o.kind {
	case opQuery:
		start := time.Now()
		res, err := s.db.Query(o.text(uniq))
		lat := time.Since(start)
		if err != nil {
			return expect{}, lat, err
		}
		return digest(res.Rows), lat, nil
	case opInsert:
		if err := s.db.Insert("orders", o.rows...); err != nil {
			return expect{}, 0, err
		}
		s.acked += len(o.rows)
		return expect{}, 0, nil
	case opCheckpoint:
		_, err := s.db.Checkpoint()
		return expect{}, 0, err
	case opReopen:
		return expect{}, 0, s.reopen()
	}
	return expect{}, 0, fmt.Errorf("unknown op kind %d", o.kind)
}

// reopen closes the database and recovers it from its data directory,
// then checks that every acknowledged orders row is back.
func (s *libSUT) reopen() error {
	s.carried = s.counters()
	if err := s.db.Close(); err != nil {
		return err
	}
	db, err := openDurable(s.dir)
	if err != nil {
		return err
	}
	s.db = db
	for _, seg := range db.Segments() {
		if seg.Table != "orders" {
			continue
		}
		if seg.Quarantined {
			return fmt.Errorf("orders quarantined after recovery: %s", seg.Reason)
		}
		if int(seg.Rows) != s.acked {
			return fmt.Errorf("recovery brought back %d orders rows, %d were acknowledged", seg.Rows, s.acked)
		}
		return nil
	}
	return fmt.Errorf("orders missing after recovery")
}

// openDurable opens a database on dir with everything else on its
// defaults; WithDataDir panics when the directory cannot be opened, so
// that becomes an error here.
func openDurable(dir string) (db *gmdj.DB, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("open %s: %v", dir, r)
		}
	}()
	return gmdj.Open(gmdj.WithDataDir(dir)), nil
}

// measured is what one timed sequence produced.
type measured struct {
	elapsed   time.Duration
	latencies [][]float64 // per class, milliseconds
	attempted int
	failed    int
	queriesOK int
	cycles    int
	allocKB   float64 // TotalAlloc delta over the sequence, KiB
	firstErr  error
}

// runTimed drives every client through its sequence, whole cycles at a
// time, until the deadline passes or the sequence ends. The loop is
// closed: a client sends its next operation only after the previous
// one returned, which is how an analyst's session and a dashboard's
// refresh behave.
func runTimed(w workload, s sut, seconds float64) measured {
	nc := w.clients()
	type clientOut struct {
		lat               [][]float64
		attempted, failed int
		queriesOK, cycles int
		firstErr          error
		finished          time.Time
	}
	outs := make([]clientOut, nc)
	var uniq uniqCounter
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			out.lat = make([][]float64, len(w.classes()))
			orc := w.orc()
			for i := 0; time.Now().Before(deadline); i++ {
				if max := w.maxCycles(); max > 0 && i >= max {
					break
				}
				ops := w.cycle(c, i)
				for k := range ops {
					o := &ops[k]
					out.attempted++
					got, lat, err := s.exec(c, o, uniq.next())
					if err == nil && o.kind == opQuery && o.key != "" {
						err = orc.check(o.key, got)
					}
					if err != nil {
						out.failed++
						if out.firstErr == nil {
							out.firstErr = err
						}
						continue
					}
					if o.kind == opQuery {
						out.queriesOK++
						out.lat[o.class] = append(out.lat[o.class], float64(lat)/float64(time.Millisecond))
					}
				}
				out.cycles++
			}
			out.finished = time.Now()
		}(c)
	}
	wg.Wait()
	end := start
	for _, o := range outs {
		if o.finished.After(end) {
			end = o.finished
		}
	}
	runtime.ReadMemStats(&ms1)
	m := measured{
		elapsed:   end.Sub(start),
		latencies: make([][]float64, len(w.classes())),
		allocKB:   float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024,
	}
	for _, o := range outs {
		m.attempted += o.attempted
		m.failed += o.failed
		m.queriesOK += o.queriesOK
		m.cycles += o.cycles
		if m.firstErr == nil {
			m.firstErr = o.firstErr
		}
		for cl, l := range o.lat {
			m.latencies[cl] = append(m.latencies[cl], l...)
		}
	}
	return m
}

// uniqCounter hands out the numbers that make fresh aliases unique
// across clients.
type uniqCounter struct{ n atomic.Uint64 }

func (u *uniqCounter) next() uint64 { return u.n.Add(1) }

// classMedianMean is the benchmark's "median latency of one query":
// each class's median, averaged with the class's share of the queries
// as weight. It moves when any shape's typical latency moves and does
// not jump when the boundary between two shapes shifts.
func classMedianMean(lat [][]float64, q float64) (value float64, samples int) {
	total := 0
	for _, l := range lat {
		total += len(l)
	}
	if total == 0 {
		return 0, 0
	}
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		value += percentile(l, q) * float64(len(l)) / float64(total)
	}
	return value, total
}

// sequenceHash digests the head of every generated table and the first
// cycles of every client's sequence, so two runs can show they executed
// the same operations on the same data.
func sequenceHash(w workload, cycles int) string {
	h := fnv.New64a()
	for _, t := range w.inputs() {
		fmt.Fprintln(h, t.name, len(t.rows))
		for i := 0; i < len(t.rows) && i < 16; i++ {
			fmt.Fprintln(h, t.rows[i]...)
		}
	}
	for c := 0; c < w.clients(); c++ {
		for i := 0; i < cycles; i++ {
			for _, o := range w.cycle(c, i) {
				fmt.Fprintf(h, "%d|%d|%s|%s|%d\n", o.kind, o.class, o.sql, o.key, len(o.rows))
				for _, r := range o.rows {
					fmt.Fprintln(h, r...)
				}
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mix derives an independent PRNG seed for one (seed, client, cycle)
// cell, so any cycle can be generated without generating its
// predecessors.
func mix(seed uint64, parts ...int) uint64 {
	h := seed*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range parts {
		h ^= uint64(p) + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	if h == 0 {
		h = 1
	}
	return h
}

// scratch makes a fresh directory under the benchmark's own out/
// directory — inside the checkout, never the system temp dir — and
// returns it with its remover.
func scratch(root, label string) (string, func(), error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(root, "run-"+label+"-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	return abs, func() { os.RemoveAll(abs) }, nil
}
