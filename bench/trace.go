package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/exec"
	"github.com/olaplab/gmdj/internal/gmdj"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/plancache"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// span is one timed call into a layer. Names are "<layer>.<stage>";
// parent is an index into the recorder's spans (-1 for a root) and op
// the operation the span belongs to, shared by all of its spans.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the recorder started
}

func (s *span) dur() time.Duration { return s.end - s.start }
func (s *span) layer() string      { l, _, _ := strings.Cut(s.name, "."); return l }

// recorder keeps spans in memory; nothing is written until the pass is
// over.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{name: name, op: op, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) { r.spans[id].end = time.Since(r.t0) }

// timed records fn as one span.
func (r *recorder) timed(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// children returns the direct children of span id. Spans are appended
// in start order, so a span's children follow it.
func (r *recorder) children(id int) []int {
	var out []int
	for i := id + 1; i < len(r.spans); i++ {
		if r.spans[i].parent == id {
			out = append(out, i)
		}
	}
	return out
}

// layerTimes returns, for the subtree under root, each layer's self
// time: a span's duration minus the part its children cover. The root's
// own self time is returned separately as unattributed.
func (r *recorder) layerTimes(root int) (layers map[string]time.Duration, unattributed time.Duration) {
	layers = map[string]time.Duration{}
	var walk func(id int) time.Duration
	walk = func(id int) time.Duration {
		self := r.spans[id].dur()
		for _, c := range r.children(id) {
			self -= r.spans[c].dur()
			layers[r.spans[c].layer()] += walk(c)
		}
		return self
	}
	return layers, walk(root)
}

// write dumps the spans as Chrome trace_event JSON (complete events,
// one row per layer), loadable by Perfetto like the traces olapql and
// olapd export.
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	events := make([]event, 0, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		tid, ok := tids[s.layer()]
		if !ok {
			tid = len(tids) + 1
			tids[s.layer()] = tid
		}
		args := map[string]any{"op": s.op, "span": i}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		events = append(events, event{Name: s.name, Cat: s.layer(), Ph: "X", Pid: 1, Tid: tid, Args: args,
			Ts: float64(s.start) / float64(time.Microsecond), Dur: float64(s.dur()) / float64(time.Microsecond)})
	}
	data, err := json.Marshal(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// stager replays a query stage by stage through the layers' exported
// functions, on its own copy of the inputs: normalise, plan-cache
// lookup, parse + resolve and rewrite on a miss, bind, evaluate (the
// executor on GMDJ-free subtrees, gmdj.Evaluate on each GMDJ node, the
// executor again on what sits above), materialise the rows. It mirrors
// what DB.Query does with the same defaults; the program itself carries
// no spans yet.
type stager struct {
	cat   *storage.Catalog
	eng   *engine.Engine
	ex    *exec.Executor
	plans *plancache.Cache
	pool  *mem.Pool    // nil without a memory limit
	store *spill.Store // nil without a memory limit
	rec   *recorder
}

func newStager(cat *storage.Catalog, memLimit int64, dir string) (*stager, error) {
	s := &stager{
		cat:   cat,
		eng:   engine.New(cat),
		ex:    exec.New(cat),
		plans: plancache.New(0),
		rec:   newRecorder(),
	}
	s.ex.Parallelism = mem.ClampParallelism(memLimit, runtime.GOMAXPROCS(0))
	if memLimit > 0 {
		store, err := spill.NewScratch(dir, nil)
		if err != nil {
			return nil, err
		}
		s.pool, s.store, s.ex.Spill = mem.NewPool(memLimit, 0), store, store
	}
	return s, nil
}

func (s *stager) close() {
	if s.store != nil {
		s.store.RemoveAll()
	}
	s.pool.Close()
	s.eng.Close()
}

// staged is what one staged replay produced besides its spans.
type staged struct {
	root    int // the db.query span
	rows    [][]any
	planHit bool
	// Sums over the query's GMDJ nodes.
	gstats                  gmdj.Stats
	baseRows, detailRows    int64
	workers                 int
	rowsScanned             int64
	blocksPruned, blocksAll int64
}

func (s *stager) query(op int, text string) (*staged, error) {
	r := s.rec
	out := &staged{workers: 1}
	root := r.begin("db.query", -1, op)
	out.root = root
	defer r.end(root)

	var norm string
	var args []value.Value
	var err error
	r.timed("sql.normalize", root, op, func() { norm, args, _, err = sql.Normalize(text) })
	if err != nil {
		return nil, err
	}
	key := plancache.Key{Text: norm, Strategy: uint8(engine.GMDJOpt)}
	epoch := s.cat.SchemaEpoch()
	var ent *plancache.Entry
	r.timed("plancache.lookup", root, op, func() { ent, out.planHit = s.plans.Get(key, epoch) })
	if !out.planHit {
		var plan, phys algebra.Node
		r.timed("sql.parse", root, op, func() { plan, err = sql.ParseAndResolve(norm, s.eng) })
		if err != nil {
			return nil, err
		}
		r.timed("rewrite.plan", root, op, func() { phys, err = s.eng.Plan(plan, engine.GMDJOpt) })
		if err != nil {
			return nil, err
		}
		ent = &plancache.Entry{Plan: phys, NParams: len(args), Tables: algebra.Tables(phys), SchemaEpoch: epoch}
		r.timed("plancache.put", root, op, func() { s.plans.Put(key, ent) })
	}
	var bound algebra.Node
	r.timed("engine.bind", root, op, func() { bound, err = algebra.BindParams(ent.Plan, args) })
	if err != nil {
		return nil, err
	}

	// With a memory limit the engine admits the query to the pool and
	// hands operators a governor carrying the reservation; without one
	// it runs ungoverned.
	var gov *govern.Governor
	if s.pool != nil {
		var res *mem.Reservation
		r.timed("mem.acquire", root, op, func() { res, err = s.pool.Acquire(context.Background(), mem.DefaultQueryReserve) })
		if err != nil {
			return nil, err
		}
		defer res.Release()
		gov = govern.New(context.Background(), govern.Budget{})
		gov.AttachReservation(res)
	}
	rel, err := s.eval(bound, root, op, gov, out)
	if err != nil {
		return nil, err
	}
	r.timed("engine.result", root, op, func() { out.rows = materialise(rel) })

	for _, sc := range scans(bound) {
		if t, terr := s.cat.Table(sc.Table); terr == nil {
			out.rowsScanned += int64(t.Rel.Len())
			out.blocksAll += int64((t.Rel.Len() + storage.ZoneBlockRows - 1) / storage.ZoneBlockRows)
		}
	}
	return out, nil
}

// eval evaluates n with one span per layer boundary: exec.scan for a
// subtree without a GMDJ (scan, zone-map pruning, filter, projection),
// gmdj.eval for each GMDJ node over its already-materialised inputs,
// exec.rest for the operators above a GMDJ.
func (s *stager) eval(n algebra.Node, parent, op int, gov *govern.Governor, out *staged) (*relation.Relation, error) {
	if g, ok := n.(*algebra.GMDJ); ok {
		base, err := s.eval(g.Base, parent, op, gov, out)
		if err != nil {
			return nil, err
		}
		detail, err := s.eval(g.Detail, parent, op, gov, out)
		if err != nil {
			return nil, err
		}
		// The options exec.evalGMDJ passes, minus the hooks that are off
		// on a default DB (result cache, live registry, tracer, faults).
		var local gmdj.Stats
		opts := gmdj.Options{Completion: g.Completion, Workers: s.ex.Parallelism, Stats: &local, Gov: gov, Spill: s.store}
		if res := gov.Reservation(); res != nil {
			tr := res.Tracker("gmdj")
			defer tr.Release()
			opts.Mem = tr
		}
		if sc, ok := g.Detail.(*algebra.Scan); ok {
			if t, terr := s.cat.Table(sc.Table); terr == nil {
				opts.PackedHash = func(key []int) ([]uint64, []bool) { return t.Segment().KeyHashes(key) }
			}
		}
		var rel *relation.Relation
		s.rec.timed("gmdj.eval", parent, op, func() { rel, err = gmdj.Evaluate(base, detail, g.Conds, opts) })
		out.gstats.Merge(&local)
		out.baseRows += int64(base.Len())
		out.detailRows += int64(detail.Len())
		// A spilled evaluation scans once per partition and lists every
		// scan's workers; the degree is the workers of one scan.
		if w := len(local.WorkerRows) / int(1+local.ExtraDetailScans); w > out.workers {
			out.workers = w
		}
		return rel, err
	}
	name := "exec.scan"
	if hasGMDJ(n) {
		name = "exec.rest"
		replaced, err := s.replaceInputs(n, parent, op, gov, out)
		if err != nil {
			return nil, err
		}
		n = replaced
	}
	col := obs.NewCollector(nil)
	var rel *relation.Relation
	var err error
	s.rec.timed(name, parent, op, func() { rel, err = s.ex.RunObserved(n, gov, col) })
	out.blocksPruned += col.Root().Totals()["segments_pruned"]
	return rel, err
}

// replaceInputs evaluates the inputs of n that contain a GMDJ and
// returns n over the materialised results. A node kind it does not
// know is returned as is, and then runs whole under exec.rest.
func (s *stager) replaceInputs(n algebra.Node, parent, op int, gov *govern.Governor, out *staged) (algebra.Node, error) {
	sub := func(in algebra.Node) (algebra.Node, error) {
		if !hasGMDJ(in) {
			return in, nil
		}
		rel, err := s.eval(in, parent, op, gov, out)
		if err != nil {
			return nil, err
		}
		return algebra.NewRaw("staged", rel), nil
	}
	var err error
	switch t := n.(type) {
	case *algebra.Restrict:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.Project:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.Distinct:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.Alias:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.Sort:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.GroupBy:
		c := *t
		c.Input, err = sub(t.Input)
		return &c, err
	case *algebra.Join:
		c := *t
		if c.Left, err = sub(t.Left); err != nil {
			return nil, err
		}
		c.Right, err = sub(t.Right)
		return &c, err
	}
	return n, nil
}

func hasGMDJ(n algebra.Node) bool {
	if _, ok := n.(*algebra.GMDJ); ok {
		return true
	}
	for _, c := range n.Children() {
		if hasGMDJ(c) {
			return true
		}
	}
	return false
}

func scans(n algebra.Node) []*algebra.Scan {
	if sc, ok := n.(*algebra.Scan); ok {
		return []*algebra.Scan{sc}
	}
	var out []*algebra.Scan
	for _, c := range n.Children() {
		out = append(out, scans(c)...)
	}
	return out
}

// materialise turns a relation into the [][]any a gmdj.Result holds,
// cell for cell what DB.Query returns.
func materialise(rel *relation.Relation) [][]any {
	rows := make([][]any, rel.Len())
	for i, row := range rel.Rows {
		out := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case value.KindInt:
				out[j] = v.AsInt()
			case value.KindFloat:
				out[j] = v.AsFloat()
			case value.KindString:
				out[j] = v.AsString()
			case value.KindBool:
				out[j] = v.AsBool()
			}
		}
		rows[i] = out
	}
	return rows
}

// layerOrder fixes the order layers are printed in: the order a query
// passes through them.
var layerOrder = []string{"serve", "sql", "plancache", "rewrite", "engine", "mem", "exec", "gmdj", "storage"}
