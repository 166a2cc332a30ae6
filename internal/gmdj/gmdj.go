// Package gmdj implements the physical evaluation of the generalized
// multi-dimensional join operator MD(B, R, (l₁..lₘ), (θ₁..θₘ)) — the
// paper's core mechanism for subquery evaluation.
//
// Evaluation follows the hash-index strategy of Chatziantoniou et al.
// and Akinde & Böhlen: the base-values relation B is materialized in
// memory; each θᵢ is compiled by splitting its conjuncts
// (algebra.SplitTheta) into
//
//   - equi-bindings B.x = R.y, which key a hash index over B,
//   - base-only conjuncts, evaluated once per base tuple,
//   - detail-only conjuncts, evaluated once per detail tuple, and
//   - mixed residual conjuncts, evaluated per candidate pair;
//
// the detail relation R is then streamed, each detail tuple probing the
// index (or, when θᵢ has no equi-binding, scanning the active base
// entries, or the sorted run its bounds select when θᵢ is range-bound)
// and folding into per-base aggregate state: typed columns by base
// position (agg.State). A unique base key of one INT or STRING column,
// read against a typed detail vector, has a slot map instead of the
// index: the key (or dictionary code) finds its tuple with one load; any
// other key keeps the hash walk. A routed row still goes to its key
// hash's partition, so partitions and spill cuts are the same either way.
// Intermediate state is bounded by |B| — the property the paper's cost
// argument rests on.
//
// Evaluation has two phases (DESIGN §14). The detail pass (detailPass)
// does what depends on the detail row alone — detail-only conjuncts,
// key hashes — once per row, in morsels, off the query goroutine. The
// fold (evalPartition, scan, feed) owns base tuples: each tuple's
// aggregates are fed by one goroutine in detail order, so results are
// byte-identical at any degree. A routed program (bound on one key) reads
// R once in every regime, each key partition of B folding the rows routed
// to it; only a fallback θ shards the fold by base range (degree). Each
// range indexes only the tuples it owns, so no probe is repeated.
//
// The optional tuple-completion optimization (§4.2) drops a base tuple
// from the active set the moment the downstream selection's outcome is
// decided, which is what rescues the GMDJ on bindingless conditions
// such as Figure 4's ≠ correlation.
package gmdj

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/olaplab/gmdj/internal/agg"
	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// Stats reports work performed by one Evaluate call. All counters are
// cumulative across conditions.
type Stats struct {
	// DetailScans counts walks of the whole detail: one per base range per
	// partition, or one in all for a routed program (its pass; each key
	// partition walks the rows routed to it). DetailRows + ShortCircuitRows
	// == DetailScans × |detail| at every degree and in every regime, but
	// for a hot key's partition split in two: both halves walk its rows.
	DetailScans int64
	// DetailPassWorkers is how many goroutines shared the detail pass
	// (1 serial, or a detail under two morsels); 0 when none ran, for want
	// of a detail predicate, a route or a key vector it owes.
	DetailPassWorkers int64
	// DetailRows is the number of detail tuples fed, summed over scans (a
	// row routed nowhere is fed by the pass).
	DetailRows int64
	// Probes counts hash-index probes plus fallback base-entry visits.
	Probes int64
	// Matches counts (base, detail, θᵢ) triples that satisfied θᵢ.
	Matches int64
	// Completed counts base tuples retired early by tuple completion.
	Completed int64
	// ShortCircuitRows counts detail tuples a scan skipped because tuple
	// completion decided every base tuple it owned before it finished —
	// the strongest form of the §4.2 win (and rows routed to an empty
	// key partition).
	ShortCircuitRows int64
	// FallbackConds is the number of conditions lacking equi-bindings
	// (evaluated by scanning active base entries).
	FallbackConds int
	// WorkerRows records, for a fold split across base ranges or key
	// partitions, how many detail rows each fed (recorded at drain time).
	// Nil for a single-range fold. A spilled run lists, in order, one
	// entry per partition folded in a concurrent round (per range, for a
	// fallback θ); a round of one single-range partition adds none.
	WorkerRows []int64
	// PackedHashConds counts hashed conditions whose detail key hashes
	// came from typed columns (Options.Columns or PackedHash); SlotConds
	// those whose base key's slot map (slotMap) gives each detail row its
	// tuple instead of a bucket walk.
	PackedHashConds, SlotConds int64
	// SpillPartitions counts base-state partitions evicted to the spill
	// store because the memory reservation could not hold the whole
	// base state; SpillBytesWritten/SpillBytesRead are their on-disk
	// frame traffic.
	SpillPartitions   int64
	SpillBytesWritten int64
	SpillBytesRead    int64
	// ExtraDetailScans counts full detail scans beyond the first: the
	// paper's one-scan guarantee relaxes to 1+k scans when k partitions
	// spill, and this reports k honestly. 0 for a routed program.
	ExtraDetailScans int64
}

// Merge folds src into s. Counters add; WorkerRows concatenate. Safe
// only after the source evaluation has drained (gmdj merges per-worker
// locals at drain, never shares counters mid-scan).
func (s *Stats) Merge(src *Stats) {
	if s == nil || src == nil {
		return
	}
	s.DetailScans += src.DetailScans
	s.DetailPassWorkers += src.DetailPassWorkers
	s.DetailRows += src.DetailRows
	s.Probes += src.Probes
	s.Matches += src.Matches
	s.Completed += src.Completed
	s.ShortCircuitRows += src.ShortCircuitRows
	s.FallbackConds += src.FallbackConds
	s.WorkerRows = append(s.WorkerRows, src.WorkerRows...)
	s.PackedHashConds += src.PackedHashConds
	s.SlotConds += src.SlotConds
	s.SpillPartitions += src.SpillPartitions
	s.SpillBytesWritten += src.SpillBytesWritten
	s.SpillBytesRead += src.SpillBytesRead
	s.ExtraDetailScans += src.ExtraDetailScans
}

// Options tunes evaluation.
type Options struct {
	// Completion enables §4.2 tuple completion when non-nil.
	Completion *algebra.CompletionInfo
	// Workers > 1 is the degree on offer: the detail pass takes it when
	// the detail has two morsels or more, and so does the fold, in key
	// partitions (routed) or base ranges (a fallback θ, degree). Results
	// are byte-identical to serial at any degree. 0 and 1 mean serial.
	Workers int
	// Stats, when non-nil, receives evaluation counters.
	Stats *Stats
	// Gov, when non-nil, governs the evaluation: cancellation is polled
	// every scanChunk rows per scan and in emit, and once per detail-pass
	// morsel (no shared write); emitted rows are charged against the budgets.
	Gov *govern.Governor
	// Faults injects deterministic failures at the gmdj.compile,
	// gmdj.worker, and gmdj.emit sites (nil = no injection).
	Faults *govern.Injector
	// Tracer, when non-nil, records one span per detail scan and one per
	// detail-pass worker (Perfetto track per worker).
	Tracer *obs.Tracer
	// Live, when non-nil, receives detail-row progress for the live query
	// dashboard, so a long detail scan shows advancing numbers as it runs.
	Live *obs.LiveQuery
	// Columns, when non-nil, supplies the detail's typed columns by
	// position (storage.Table.Column; nil: none), for exactly the rows
	// passed to Evaluate (a vector of another length is not read). The
	// pass and the hash-bound fold then read cells from them (DESIGN §14).
	// BaseColumns is the same for the base, whose cells mixed conjuncts read.
	Columns, BaseColumns func(col int) *relation.ColVec
	// PackedHash, when non-nil, supplies a serial evaluation's key-hash
	// vectors from a segment of the detail table
	// (storage.Segment.KeyHashes): per-row hash and validity for the
	// given detail-schema key positions, bit-identical to hashing the
	// tuples, for exactly the rows passed to Evaluate.
	PackedHash func(key []int) (h []uint64, ok []bool)
	// Mem, when non-nil, charges the estimated base-state footprint
	// (hash indexes, fold state, completion flags) against the query's
	// memory reservation before building it. When that cannot supply the
	// bytes, evaluation spills or — Spill nil — fails (govern.ErrMemBudget).
	Mem *mem.Tracker
	// Spill, when non-nil, is the file-backed store used to evict base
	// partitions under memory pressure. Nil turns reservation exhaustion
	// into a hard govern.ErrMemBudget error — the "kill" regime.
	Spill *spill.Store
	// Emit, when non-nil, runs the σ/π above the GMDJ inside emit.
	Emit *Emit
}

// Emit is the selection and projection directly above a GMDJ. emit hands
// Row each kept tuple's wide row (base columns, then every aggregate) in
// a scratch tuple reused for the next; Row returns the row to emit in
// its place, of Schema and read only until the next call, or nil to drop
// it. The result has Schema and only the rows Row kept.
type Emit struct {
	Schema *relation.Schema
	Row    func(wide relation.Tuple) (relation.Tuple, error)
}

// detailHashVec is the per-detail-row key-hash partition for one
// key-column set: H[i] is the KeyHash of row i's key columns and OK[i]
// is false where any key component is NULL (never matches) — or, in a
// vector the detail pass filled, where no condition accepted row i and
// so none will read it.
type detailHashVec struct {
	H  []uint64
	OK []bool
}

// vecPool recycles the vectors the detail pass fills (nine bytes a
// detail row, most of what a hash-bound query allocates): Evaluate
// returns them after the fold, newVec hands them out again.
var vecPool sync.Pool

func newVec(n int) *detailHashVec {
	if v, _ := vecPool.Get().(*detailHashVec); v != nil && cap(v.H) >= n {
		v.H, v.OK = v.H[:n], v.OK[:n]
		clear(v.OK) // H is read only where OK is set
		return v
	}
	return &detailHashVec{H: make([]uint64, n), OK: make([]bool, n)}
}

// passBuf is the rest of what the pass fills for one query, recycled like
// the hash vectors: every detailPredOK, the routed rows (staged: each
// morsel's, at its first row), each detail predicate's Scan, and the
// workers' position lists (pos: three lists a worker, each as long as a
// morsel or the detail, whichever is shorter).
type passBuf struct {
	ok                 []bool
	route, staged, pos []int32
	scans              []expr.Scan
}

// morselRows lists a whole morsel's positions: 0, 1, ...
var morselRows = func() (pos [govern.MorselRows]int32) {
	for i := range pos {
		pos[i] = int32(i)
	}
	return pos
}()

var bufPool = sync.Pool{New: func() any { return new(passBuf) }}

// condProg is one compiled θᵢ with its aggregate list.
type condProg struct {
	baseKey    []int      // base-schema positions of equi-binding keys (empty ⇒ fallback)
	detailKey  []int      // detail-schema positions of equi-binding keys
	basePred   *expr.Pred // bound to base schema; nil when absent
	detailPred *expr.Pred // bound to detail schema; nil when absent
	mixedPred  *expr.Pred // bound to base++detail; no conjuncts when absent
	rng        *rangeBind // inequality bindings, which sort a fallback scan list; nil when none
	aggs       [2]int     // this cond's aggregates: positions [aggs[0], aggs[1]) of program.specs
	atoms      []int      // completion atom indexes watching this condition

	// detailHash is an indexed condition's key hash per detail row, which
	// feed reads; conditions on one detailKey share it. passHash marks it
	// as owed to the detail pass, which hashes the rows some indexed
	// condition accepts. Read-only during the fold.
	detailHash *detailHashVec
	passHash   bool
	pair       bool // an aggregate argument reads the base: the aggregates fold base++detail
	// detailPredOK, when non-nil, is the detail pass's outcome of
	// detailPred per detail row; unreached records that it holds on none
	// (where newState asks), so a fallback condition needs no scan list.
	// Read-only during the fold.
	detailPredOK []bool
	unreached    bool
	typed        bool     // its matches take the typed fold (foldable)
	slot         *slotMap // in place of a hash index, on its key pair; nil: hashed
}

// slotMap finds a unique base key's tuple with one load (newSlotMap):
// at[k] is the base position of INT key lo+k, or of the detail
// dictionary's string k, -1 for none. nulls, ints and codes are the
// detail key vector's.
type slotMap struct {
	at    []int32
	lo    uint64
	nulls []bool
	ints  []int64
	codes []uint32 // a coded vector's; nil for INTs
}

// find is the base position of the tuple holding detail row di's key, -1
// for none.
func (m *slotMap) find(di int) int32 {
	var k uint64
	switch {
	case m.nulls[di]:
		return -1
	case m.codes != nil:
		k = uint64(m.codes[di])
	default:
		k = uint64(m.ints[di]) - m.lo
	}
	if k >= uint64(len(m.at)) {
		return -1
	}
	return m.at[k]
}

// program is one compiled GMDJ: everything about the evaluation that
// does not depend on which base tuples are resident. It is built once
// per Evaluate and shared by every partition the driver runs.
type program struct {
	// Options are the caller's, normalized: Stats is never nil,
	// PackedHash is dropped once found stale.
	Options
	base, detail *relation.Relation
	baseW        int
	conds        []condProg
	specs        []agg.Spec // every condition's bound aggregates, in output order
	outSchema    *relation.Schema
	// cols are the detail's typed columns by position, nil where Columns
	// gave none: what cell reads first; baseCols the base's, unboxed.
	cols, baseCols []*relation.ColVec
	// passWorkers is the detail pass's degree; 1 — serial, or a detail
	// under two morsels, too small to repay the goroutines — runs it on
	// the query goroutine. fallback records that some condition lacks an
	// equi-binding, which is what makes sharding the fold pay (degree).
	passWorkers int
	fallback    bool
	pooled      []*detailHashVec // the pass's vectors, back to vecPool after the fold
	slabs       []*[]int32       // slot maps and local, back to slabPool after the fold
	// local[bi] is base tuple bi's offset in the state that owns it, for
	// a slot-mapped key's partitions of positions (state.own).
	local []int32
	// bits cuts the base into 1<<bits partitions (parts); by key when all
	// conditions are indexed on one (baseKey, detailKey) pair — route — and
	// the pass, run even at degree 1, lists key partition j's rows: routes[j].
	bits   int
	route  bool
	buf    *passBuf
	routes [][]int32
	hs     []uint64 // routed: each base tuple's key hash (0 for a NULL key), what parts cuts by
}

// result holds, by base position, what the single emit pass needs:
// each tuple's completion decision (0 undecided, +1 accept (frozen),
// -1 drop) and its aggregates' fold state.
type result struct {
	decided []int8
	fold    *agg.State
}

// newResult returns the result of n undecided tuples, each aggregate
// over the empty bag.
func (p *program) newResult(n int) result {
	return result{decided: make([]int8, n), fold: agg.New(p.specs, n)}
}

// Evaluate computes the GMDJ of base and detail under conds.
// The output schema is base's columns followed by each condition's
// aggregate columns in order; output rows appear in base order (minus
// tuples dropped by completion).
func Evaluate(base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options) (*relation.Relation, error) {
	if err := opts.Faults.Fire("gmdj.compile", opts.Gov); err != nil {
		return nil, err
	}
	// Memory admission for the resident base state: charge the
	// estimated footprint before building it. A reservation that cannot
	// supply the bytes sends evaluation down the spill path — or, with no
	// spill store, fails with the typed memory-budget error ("kill").
	nBase := len(base.Rows)
	var est int64
	spillBits := 0
	if opts.Mem != nil && nBase > 0 {
		est = estimateStateBytes(base, conds, opts.Completion)
		if err := opts.Mem.Grow(est); err == nil {
			defer opts.Mem.Shrink(est)
		} else if opts.Spill != nil {
			spillBits = spillFanout(est, opts.Mem.Available()/2)
		} else {
			return nil, &govern.BudgetError{Kind: govern.ErrMemBudget, Limit: opts.Mem.Available(), Observed: est}
		}
	}
	p, err := compile(base, detail, conds, opts, spillBits)
	if err != nil {
		return nil, err
	}
	if spillBits > 0 && !p.route { // a detail scan per partition: floor their size
		p.bits = spillFanout(est, max(opts.Mem.Available()/2, minPartitionBytes))
	}
	if err := p.detailPass(); err != nil {
		return nil, err
	}
	out := p.newResult(nBase)
	switch {
	case spillBits > 0:
		err = p.evalSpilled(opts.Mem, opts.Spill, est, out)
	case p.route:
		err = p.evalPartition(out, p.parts()...)
	default:
		err = p.evalPartition(out, partition{rows: base.Rows})
	}
	if err != nil {
		return nil, err
	}
	for _, v := range p.pooled {
		vecPool.Put(v) // the fold is over: emit reads the fold state only
	}
	for _, bp := range p.slabs {
		slabPool.Put(bp)
	}
	if p.buf != nil {
		bufPool.Put(p.buf)
	}
	return p.emit(out)
}

// detailPass is the first phase: it walks the detail once, in morsels
// claimed from an atomic counter, filling every condition's detailPredOK
// and every owed key-hash vector, and routing: a routed program's rows
// are counted per (morsel, key partition) — staged, unless the morsel
// keeps every row — then placed at the counts' prefix sums. Workers
// write disjoint ranges of shared vectors, so there is no merge and the
// outcome cannot depend on which worker claimed which morsel. A pass
// runs when there is a detail predicate, a route or an owed vector, at
// passWorkers 1 too: every indexed condition without a PackedHash vector
// owes one.
func (p *program) detailPass() error {
	n, work, preds := len(p.detail.Rows), p.route, 0
	for _, cp := range p.conds {
		if work = work || cp.passHash || cp.detailPred != nil; cp.detailPred != nil {
			preds++
		}
	}
	if !work {
		return nil
	}
	b := bufPool.Get().(*passBuf)
	p.buf = b
	b.ok = slices.Grow(b.ok[:0], preds*n)[:preds*n]
	b.scans = slices.Grow(b.scans[:0], len(p.conds))[:len(p.conds)]
	for ci, slab := 0, b.ok; ci < len(p.conds); ci++ {
		if cp := &p.conds[ci]; cp.detailPred != nil {
			cp.detailPredOK, slab = slab[:n:n], slab[n:]
			b.scans[ci].Bind(cp.detailPred, p.cols)
		}
	}
	stride := min(n, govern.MorselRows) // a position list: at most a morsel
	b.pos = slices.Grow(b.pos[:0], p.passWorkers*3*stride)[:p.passWorkers*3*stride]
	if p.route {
		p.routes = make([][]int32, 1<<p.bits)
		b.staged = slices.Grow(b.staged[:0], n)[:n]
	}
	k, counts, kept := len(p.routes), make([]int32, govern.MorselCount(n)*len(p.routes)), make([]int32, govern.MorselCount(n)) // per (morsel, key partition); per morsel
	// One span per worker, from the pass's start to its last morsel's end.
	start, ends := time.Now(), make([]time.Time, p.passWorkers)
	var route []int32 // nil while counting
	morsel := func(w, m, lo, hi int) error {
		if route == nil {
			keep, err := p.detailMorsel(b.pos[w*3*stride:(w+1)*3*stride], stride, lo, hi)
			if err != nil {
				return err
			} else if kept[m] = int32(len(keep)); p.route && len(keep) < hi-lo {
				copy(b.staged[lo:hi], keep)
			}
		}
		if rows := morselRows[:hi-lo]; p.route {
			if int(kept[m]) < hi-lo {
				rows = b.staged[lo : lo+int(kept[m])]
			}
			p.routeRows(counts[m*k:(m+1)*k], route, rows, lo)
		}
		ends[w] = time.Now()
		return nil
	}
	used, err := govern.RunMorsels(n, p.passWorkers, morsel)
	if err == nil && p.route {
		route = slices.Grow(b.route[:0], n)[:n]
		at := int32(0)
		for j := range p.routes {
			first := at
			for m := j; m < len(counts); m += k {
				counts[m], at = at, at+counts[m]
			}
			p.routes[j] = route[first:at]
		}
		_, err = govern.RunMorsels(n, p.passWorkers, morsel)
		// The pass is the one walk of the detail: a row routed nowhere is
		// fed here.
		b.route = route
		p.Stats.DetailScans++
		p.Stats.DetailRows += int64(n) - int64(at)
		p.Live.AddDetail(int64(n) - int64(at))
	}
	if err != nil {
		return err
	}
	for w, end := range ends {
		if p.Tracer != nil && !end.IsZero() { // zero: the others claimed every morsel first
			p.Tracer.Span("gmdj", fmt.Sprintf("detail pass worker %d", w), int64(2+w), start, end.Sub(start))
		}
	}
	p.Stats.DetailPassWorkers += int64(used)
	for ci := range p.conds {
		cp := &p.conds[ci]
		// Where newState asks: a base-only conjunct, or no key.
		cp.unreached = cp.detailPredOK != nil && (cp.basePred != nil || len(cp.baseKey) == 0) && !slices.Contains(cp.detailPredOK, true)
	}
	return nil
}

// detailMorsel is the detail pass over rows [lo, hi) in a worker's three
// position lists of mr rows each (pos): cancellation polled and gmdj.pass
// fired once, then per condition a Scan of its detail predicate into its
// detailPredOK range. Each owed key-hash vector hashes the rows some
// indexed condition keeps: those returned. It is the one place a detail
// key is hashed.
func (p *program) detailMorsel(pos []int32, mr, lo, hi int) ([]int32, error) {
	if err := cmp.Or(p.Gov.Check(), p.Faults.Fire("gmdj.pass", p.Gov)); err != nil {
		return nil, err
	}
	all, u := morselRows[:hi-lo], 0
	var keep []int32 // the union so far, alternating between pos's last two lists
	for ci := range p.conds {
		cp, sel := &p.conds[ci], all
		if cp.detailPredOK != nil {
			var err error
			if sel, err = p.buf.scans[ci].Select(p.detail.Rows[lo:hi], lo, pos[:copy(pos[:mr], all)]); err != nil {
				return nil, err
			}
			ok := cp.detailPredOK[lo:hi]
			clear(ok)
			for _, i := range sel {
				ok[i] = true
			}
		}
		if cp.detailHash != nil {
			keep, u = union(pos[(1+u)*mr:][:0], keep, sel, all), 1-u
		}
	}
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.passHash && !slices.ContainsFunc(p.conds[:ci], func(c condProg) bool { return c.detailHash == cp.detailHash }) {
			p.hashRows(cp.detailHash.H[lo:hi], cp.detailHash.OK[lo:hi], keep, cp.detailKey, lo)
		}
	}
	return keep, nil
}

// union appends to dst the ascending positions in a or b; it is all, the
// list of every position, when either is.
func union(dst, a, b, all []int32) []int32 {
	if len(a) == len(all) || len(b) == len(all) {
		return all
	}
	for len(a) > 0 || len(b) > 0 {
		if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else if dst, b = append(dst, b[0]), b[1:]; len(a) > 0 && a[0] == dst[len(dst)-1] {
			a = a[1:]
		}
	}
	return dst
}

// hashRows sets h[i], ok[i] to row lo+i's key hash for each position i of
// sel: a routed slot-mapped key's from the tuple it finds (hs), else one
// INT, FLOAT or coded STRING key from its vector, else keyHash.
func (p *program) hashRows(h []uint64, ok []bool, sel []int32, key []int, lo int) {
	v, slot := p.cols[key[0]], p.conds[0].slot // routed, every condition's
	if p.hs == nil {
		slot = nil
	}
	for _, i := range sel {
		bi, di := int32(-1), lo+int(i)
		if slot != nil {
			bi = slot.find(di)
		}
		switch {
		case bi >= 0: // equal keys hash equal
			h[i], ok[i] = p.hs[bi], true
		case v == nil || len(key) > 1 || v.Boxed != nil:
			h[i], ok[i] = p.keyHash(di, key)
		case v.Nulls[di]:
		case v.Kind == value.KindString && v.Dict != nil:
			h[i], ok[i] = v.DictHash[v.Codes[di]], true
		case v.Kind == value.KindInt:
			h[i], ok[i] = value.FoldHash(value.HashInit, value.Int(v.Ints[di])), true
		case v.Kind == value.KindFloat:
			h[i], ok[i] = value.FoldHash(value.HashInit, value.Float(v.Floats[di])), true
		default:
			h[i], ok[i] = p.keyHash(di, key)
		}
	}
}

// cell is detail row di's cell at column c, from the column's typed
// vector if it has one: the pass and the hash-bound fold read cells here.
func (p *program) cell(di, c int) value.Value {
	if v := p.cols[c]; v != nil {
		return v.Value(di)
	}
	return p.detail.Rows[di][c]
}

// keyHash is relation.Tuple.KeyHash of detail row di, read through cell.
func (p *program) keyHash(di int, key []int) (uint64, bool) {
	h := value.HashInit
	for _, c := range key {
		v := p.cell(di, c)
		if v.IsNull() {
			return 0, false
		}
		h = value.FoldHash(h, v)
	}
	return h, true
}

// routeRows counts the routed ones of rows (offsets from lo) per key
// partition j into at, or, given route, places each at route[at[j]],
// through a copy: at's lines are shared.
func (p *program) routeRows(at, route, rows []int32, lo int) {
	var n [maxSpillParts]int32
	vec, shift := p.conds[0].detailHash, uint(64-p.bits)&63
	copy(n[:], at)
	for _, k := range rows {
		if di := lo + int(k); vec.OK[di] {
			j := vec.H[di] >> shift % maxSpillParts
			if route != nil {
				route[n[j]] = int32(di)
			}
			n[j]++
		}
	}
	if route == nil {
		copy(at, n[:])
	}
}

// estimateStateBytes approximates the resident footprint of the GMDJ
// base state — an admission estimate, not an allocation count: per base
// row, index entries per condition, fold columns, completion flags, and
// a row's footprint, which overstates what a partition adds to the
// resident base it gathers by position, but sets the spill fan-out.
func estimateStateBytes(base *relation.Relation, conds []algebra.GMDJCond, comp *algebra.CompletionInfo) int64 {
	nBase := int64(len(base.Rows))
	if nBase == 0 {
		return 0
	}
	totalAggs := 0
	for _, c := range conds {
		totalAggs += len(c.Aggs)
	}
	per := int64(64)                  // decision and activity flags, with headroom
	per += int64(totalAggs) * 48      // fold columns: a bound, not a width (MIN/MAX hold a 32 B cell)
	per += int64(len(conds)) * 24     // index entries + fallback scan lists
	per += base.Rows[0].ApproxBytes() // representative row footprint
	if comp != nil {
		per += int64(len(comp.Atoms)) * 2 // matched flags
	}
	return nBase * per
}

// compile is the preamble every regime shares: it binds and classifies
// every condition, resolves the detail-side key-hash vectors (from
// PackedHash, or owed by the detail pass), and counts the fallback
// conditions — once per Evaluate, however many partitions the base is
// then evaluated in. spillBits is the spill regime's fan-out, 0 in memory.
func compile(base, detail *relation.Relation, conds []algebra.GMDJCond, opts Options, spillBits int) (*program, error) {
	combined := base.Schema.Concat(detail.Schema)
	p := &program{
		Options:     opts,
		base:        base,
		detail:      detail,
		baseW:       base.Schema.Len(),
		conds:       make([]condProg, len(conds)),
		passWorkers: govern.MorselWorkers(opts.Workers, len(detail.Rows)),
	}
	if p.Stats == nil {
		p.Stats = new(Stats)
	}
	var err error
	if p.outSchema, err = algebra.GMDJSchema(base.Schema, conds); err != nil {
		return nil, err
	}
	for i, c := range conds {
		cp := &p.conds[i]
		cp.aggs[0] = len(p.specs)
		specs, err := bindAggs(p.specs, c.Aggs, detail.Schema)
		if err != nil { // an argument may read the base: fold base++detail (match)
			cp.pair = true
			specs, err = bindAggs(p.specs, c.Aggs, combined)
		}
		if err != nil {
			return nil, fmt.Errorf("gmdj: condition %d: %w", i, err)
		}
		p.specs = specs
		cp.aggs[1] = len(p.specs)
		if err := classifyTheta(cp, c.Theta, base.Schema, detail.Schema, combined); err != nil {
			return nil, fmt.Errorf("gmdj: condition %d (%s): %w", i, c.Theta, err)
		}
		if len(cp.baseKey) == 0 {
			p.Stats.FallbackConds++
			p.fallback = true
		}
	}
	p.attachColumns()
	if p.Completion != nil {
		for ai, a := range p.Completion.Atoms {
			if a.Cond < 0 || a.Cond >= len(conds) {
				return nil, fmt.Errorf("gmdj: completion atom %d references condition %d of %d", ai, a.Cond, len(conds))
			}
			p.conds[a.Cond].atoms = append(p.conds[a.Cond].atoms, ai)
		}
	}
	for ci := range p.conds {
		p.conds[ci].typed = p.foldable(&p.conds[ci])
	}
	routed := !p.fallback && len(conds) > 0 && !slices.ContainsFunc(p.conds, func(cp condProg) bool {
		return !slices.Equal(cp.baseKey, p.conds[0].baseKey) || !slices.Equal(cp.detailKey, p.conds[0].detailKey)
	})
	// In memory, a key partition per pass worker.
	for p.bits = spillBits; routed && spillBits == 0 && 1<<p.bits < p.passWorkers; p.bits++ {
	}
	if p.route = routed && p.bits > 0; p.route {
		p.hs = make([]uint64, len(base.Rows))
		for bi, row := range base.Rows {
			p.hs[bi], _ = row.KeyHash(p.conds[0].baseKey)
		}
	}
	p.attachHashes()
	return p, nil
}

// slabPool recycles slot maps and local: a query allocates neither.
var slabPool = sync.Pool{New: func() any { return new([]int32) }}

// slab returns n int32s from slabPool, each -1, owed back after the fold.
func (p *program) slab(n int) []int32 {
	bp := slabPool.Get().(*[]int32)
	*bp = slices.Grow((*bp)[:0], n)[:n]
	for i := range *bp {
		(*bp)[i] = -1
	}
	p.slabs = append(p.slabs, bp)
	return *bp
}

// newSlotMap is cp's slot map, or nil where the hash walk stays: cp must
// bind one base column whose non-NULL cells are unique and either INTs
// at most 4|B| apart, against an INT vector, or STRINGs, against a coded
// one of at most 4|B| strings: the map costs O(|B|) to build. Conditions
// on one key pair share it.
func (p *program) newSlotMap(cp *condProg) *slotMap {
	if len(cp.baseKey) != 1 || p.cols[cp.detailKey[0]] == nil {
		return nil
	}
	for _, prev := range p.conds {
		if prev.slot != nil && prev.baseKey[0] == cp.baseKey[0] && prev.detailKey[0] == cp.detailKey[0] {
			return prev.slot
		}
	}
	v, bc := p.cols[cp.detailKey[0]], cp.baseKey[0]
	m := &slotMap{nulls: v.Nulls, ints: v.Ints, codes: v.Codes}
	var dict *relation.HashIndex
	switch {
	case v.Kind == value.KindInt:
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, row := range p.base.Rows {
			if c := row[bc]; c.Kind() == value.KindInt {
				lo, hi = min(lo, c.AsInt()), max(hi, c.AsInt())
			}
		}
		if lo > hi || uint64(hi)-uint64(lo) >= 4*uint64(len(p.base.Rows)) { // the span, with no overflow
			return nil
		}
		m.lo, m.at = uint64(lo), p.slab(int(uint64(hi)-uint64(lo))+1)
	case v.Dict != nil && len(v.Dict) <= 4*len(p.base.Rows):
		m.at, dict = p.slab(len(v.Dict)), indexPool.Get().(*relation.HashIndex).Build(len(v.Dict), func(c int) (uint64, bool) { return v.DictHash[c], true })
		defer indexPool.Put(dict)
	default:
		return nil
	}
	for bi, row := range p.base.Rows {
		k, c := -1, row[bc]
		switch {
		case c.IsNull():
			continue
		case c.Kind() != v.Kind:
			return nil
		case dict == nil:
			k = int(uint64(c.AsInt()) - m.lo)
		default:
			for _, e := range dict.Bucket(value.FoldHash(value.HashInit, c)) {
				if v.Dict[e.Pos] == c.AsString() {
					k = int(e.Pos)
				}
			}
		}
		if k >= 0 && m.at[k] >= 0 {
			return nil // a duplicate
		} else if k >= 0 {
			m.at[k] = int32(bi)
		}
	}
	return m
}

// attachColumns takes from Columns the vectors of the columns cell reads:
// kernel leaves of detail predicates, keys, bare aggregate arguments; and
// those mixed kernels read, the base's from BaseColumns.
func (p *program) attachColumns() {
	p.cols, p.baseCols = make([]*relation.ColVec, p.detail.Schema.Len()), make([]*relation.ColVec, p.baseW)
	var want []int
	for ci := range p.conds {
		cp := &p.conds[ci]
		for _, c := range cp.mixedPred.Columns() {
			if c >= p.baseW {
				want = append(want, c-p.baseW)
			} else if v := p.BaseColumns; v != nil {
				if v := v(c); v != nil && v.Len() == len(p.base.Rows) && v.Boxed == nil {
					p.baseCols[c] = v
				}
			}
		}
		if want = append(want, cp.detailKey...); cp.detailPred != nil {
			want = append(want, cp.detailPred.Columns()...)
		}
		for j := cp.aggs[0]; j < cp.aggs[1]; j++ {
			if c := p.argCol(cp, j); c >= 0 {
				want = append(want, c)
			}
		}
	}
	for _, c := range want {
		if p.Columns != nil && p.cols[c] == nil {
			if v := p.Columns(c); v != nil && v.Len() == len(p.detail.Rows) {
				p.cols[c] = v
			}
		}
	}
}

// argCol is the detail column spec j of cp reads, if a bare one, else -1.
func (p *program) argCol(cp *condProg, j int) int {
	if c, ok := p.specs[j].Arg.(*expr.Col); ok && !cp.pair {
		return c.Index()
	}
	return -1
}

// foldable: cp is hash-bound on unboxed key vectors, with no mixed
// conjunct or completion atom, each aggregate COUNT(*) or over a vector.
func (p *program) foldable(cp *condProg) bool {
	if len(cp.baseKey) == 0 || cp.pair || len(cp.atoms) > 0 || !cp.mixedPred.Empty() ||
		slices.ContainsFunc(cp.detailKey, func(c int) bool { return p.cols[c] == nil || p.cols[c].Boxed != nil }) {
		return false
	}
	for j := cp.aggs[0]; j < cp.aggs[1]; j++ {
		if c := p.argCol(cp, j); p.specs[j].Func != agg.CountStar && (c < 0 || p.cols[c] == nil) {
			return false
		}
	}
	return true
}

// bindAggs appends specs bound against s to dst.
func bindAggs(dst, specs []agg.Spec, s *relation.Schema) ([]agg.Spec, error) {
	for _, spec := range specs {
		bound, err := spec.Bind(s)
		if err != nil {
			return nil, err
		}
		dst = append(dst, bound)
	}
	return dst, nil
}

// attachHashes gives every indexed condition its detail-side key-hash
// vector, one per distinct key-column set (coalesced subqueries probing
// the same binding, the common GMDJOpt shape, share it): a serial run's
// from PackedHash when it supplies one, else one the detail pass owes.
// A slot-mapped condition (newSlotMap) reads its key from the vector and
// needs a hash only to route.
func (p *program) attachHashes() {
	for i := range p.conds {
		cp := &p.conds[i]
		if len(cp.baseKey) == 0 {
			continue
		}
		if cp.slot = p.newSlotMap(cp); cp.slot != nil {
			if p.Stats.SlotConds++; !p.route {
				continue
			}
		}
		for j := 0; j < i && cp.detailHash == nil; j++ {
			if prev := &p.conds[j]; prev.detailHash != nil && slices.Equal(prev.detailKey, cp.detailKey) {
				cp.detailHash, cp.passHash = prev.detailHash, prev.passHash
			}
		}
		if cp.detailHash == nil && p.passWorkers <= 1 {
			cp.detailHash = p.packedVec(cp.detailKey)
		}
		if cp.detailHash == nil {
			cp.detailHash, cp.passHash = newVec(len(p.detail.Rows)), true
			p.pooled = append(p.pooled, cp.detailHash)
		}
		if cp.slot == nil && (!cp.passHash || p.typedKey(cp.detailKey)) {
			p.Stats.PackedHashConds++
		}
	}
}

// packedVec reads one key set's hash vector from the packed-segment
// supplier; nil when there is none. A supplier whose vector length
// disagrees with the detail relation (a stale segment) is dropped for
// good and evaluation falls back to row hashing.
func (p *program) packedVec(key []int) *detailHashVec {
	if p.PackedHash == nil {
		return nil
	}
	n := len(p.detail.Rows)
	h, ok := p.PackedHash(key)
	if len(h) != n || len(ok) != n {
		p.PackedHash = nil
		return nil
	}
	return &detailHashVec{H: h, OK: ok}
}

// classifyTheta compiles θ as algebra.SplitTheta splits it (the package
// comment's four classes): keys and range bounds index the base, and
// each side-local class is lowered once.
func classifyTheta(cp *condProg, theta expr.Expr, baseS, detailS, combined *relation.Schema) error {
	sp, err := algebra.SplitTheta(theta, baseS, detailS)
	if err != nil {
		return err
	}
	cp.baseKey, cp.detailKey = sp.LeftKey, sp.RightKey
	for _, r := range sp.Ranges {
		cp.rng = cp.rng.add(r.L, r.R, r.Op)
	}

	// θ holds on a pair exactly when its three classes do, so the fallback
	// loop runs the mixed class alone, as the probe's residual check does:
	// the other two were settled per base tuple and per detail row.
	lower := func(preds []expr.Expr, s *relation.Schema) (*expr.Pred, error) {
		bound, err := expr.Conj(preds).Bind(s)
		if err != nil {
			return nil, err
		}
		return expr.Compile(bound), nil
	}
	if len(sp.Left) > 0 {
		if cp.basePred, err = lower(sp.Left, baseS); err != nil {
			return err
		}
	}
	if len(sp.Right) > 0 {
		if cp.detailPred, err = lower(sp.Right, detailS); err != nil {
			return err
		}
	}
	cp.mixedPred, err = lower(sp.Mixed, combined)
	return err
}

// rangeBind is a range-bound θ's walk (DESIGN §5): a scan list sorted on
// y, cut by binary search on y's bounds or stopped by a stab column z's
// running extreme. Bounds stay in mixedPred: a run need only hold matches.
type rangeBind struct {
	y, z int      // base positions; z < 0 without a stab column
	side int      // side of y's first bound: 0 upper (a prefix run), 1 lower
	b    [2]bound // y's upper and lower bounds; col < 0 when absent
	zb   bound    // z's bound, on the side opposite to side
}

// bound is b.c φ d.col: with k = value.Compare(c, d.col), a lower bound
// (>, >=) holds when k >= t, an upper one when k < t; t is 1 for <= and
// >. The first sorted entry with k >= t starts or ends the matches.
type bound struct{ col, t int }

// add records b.bi φ d.di: the first fixes y and its side, one from the
// other side closes a band on y or, on another column, stabs the run.
func (rb *rangeBind) add(bi, di int, op value.CmpOp) *rangeBind {
	d := int(op - value.LT) // <, <=, >, >= as 0, 1, 2, 3
	side, bd := d/2, bound{col: di, t: (d + 1) / 2 % 2}
	switch {
	case rb == nil:
		rb = &rangeBind{y: bi, z: -1, side: side, b: [2]bound{{col: -1}, {col: -1}}}
		rb.b[side] = bd
	case rb.b[side].col >= 0:
	case bi == rb.y:
		rb.b[side], rb.z = bd, -1
	case rb.z < 0:
		rb.z, rb.zb = bi, bd
	}
	return rb
}

// typedKey reports whether every column of a detail key has a vector.
func (p *program) typedKey(key []int) bool {
	return !slices.ContainsFunc(key, func(c int) bool { return p.cols[c] == nil })
}

// keysEqual reports whether baseRow and detail row di agree on cp's key:
// INT–INT by ==, FLOAT–FLOAT by value.CompareFloat, the rest by value.Equal.
func (p *program) keysEqual(baseRow relation.Tuple, di int, cp *condProg) bool {
	for k, c := range cp.detailKey {
		switch b, v := baseRow[cp.baseKey[k]], p.cols[c]; {
		case v == nil || v.Boxed != nil || b.Kind() != v.Kind || v.Kind > value.KindFloat:
			if !value.Equal(b, p.cell(di, c)) {
				return false
			}
		case v.Kind == value.KindInt && b.AsInt() != v.Ints[di], v.Kind == value.KindFloat && value.CompareFloat(b.AsFloat(), v.Floats[di]) != 0:
			return false
		}
	}
	return true
}

// state is the mutable evaluation state of one detail scan: the base
// range it owns, sized to that range.
type state struct {
	p *program
	// rows are the owned tuples: partition positions [lo, lo+len(rows)).
	// Every per-tuple array below is indexed by offset into rows.
	rows   []relation.Tuple
	lo     int
	idx    []int32 // rows' base positions; nil where they are lo, lo+1, ...
	detail []int32 // routed: the detail rows the scan walks
	// index is, per hashed condition, a relation.HashIndex over the owned
	// tuples, handing out offsets into rows (nil for a fallback or a
	// slot-mapped one); hashed conditions on one base key share it.
	index []*relation.HashIndex
	// res is the partition's result: owned tuple i folds and is decided
	// at position lo+i, already where emit (or the scatter) reads it.
	res     result
	active  []bool
	matched []bool // [tuple × completion atom], one slab
	// combined is the base++detail scratch a mixed predicate's generic
	// conjuncts are handed (expr.Pred.Pair); its kernels read the sides.
	combined     relation.Tuple
	bside, dside expr.Side
	// basePredOK[c][i] caches base-only conjunct outcomes.
	basePredOK [][]bool
	// condScan is, per condition, the fallback iteration list of owned
	// tuples (nil for indexed conditions, and for one no detail row
	// reaches). Conditions with a base-only predicate list only the rows
	// that pass it, so e.g. an "x IS NULL" counterexample condition costs
	// nothing on NULL-free data. A range-bound one's is sorted if it can
	// be (rng is then set). Lists are compacted lazily as completion
	// retires entries: inactive counts retirements since the last
	// compaction, compacted is stats.Probes at it.
	condScan, ext [][]int32
	rng           []*rangeBind
	inactive      int
	compacted     int64
	// remaining counts still-active owned tuples; when completion
	// retires the last one the detail scan short-circuits (no base
	// tuple this state owns can change its output anymore).
	remaining int
	chunks    []*chunk // per indexed condition (nil for a fallback one)
	// liveFlushed is how many fed detail rows flushLive has published to
	// the live-query registry: per chunk, not per row (a shared atomic).
	liveFlushed int64
	stats       Stats
}

// flushLive publishes detail-row progress accumulated since the last
// flush to the live-query registry.
func (s *state) flushLive() {
	if d := s.stats.DetailRows - s.liveFlushed; d > 0 {
		s.p.Live.AddDetail(d)
		s.liveFlushed = s.stats.DetailRows
	}
}

// newState builds evaluation state for positions [lo,hi) of a
// partition: the hash indexes, completion flags, base-predicate cache,
// and fallback scan lists cover only the owned range, so a sharded fold
// splits the O(base) construction cost and memory across workers. res
// holds the partition's decisions and fold state.
func (p *program) newState(part *partition, lo, hi int, res result) (*state, error) {
	n := hi - lo
	s := &state{
		p:         p,
		rows:      part.rows[lo:hi],
		lo:        lo,
		detail:    part.detail,
		index:     make([]*relation.HashIndex, len(p.conds)),
		res:       res,
		active:    make([]bool, n),
		combined:  make(relation.Tuple, p.baseW+p.detail.Schema.Len()),
		bside:     expr.Side{Rows: p.base.Rows, Cols: p.baseCols},
		dside:     expr.Side{Rows: p.detail.Rows, Cols: p.cols},
		remaining: n,
	}
	for i := range s.active {
		s.active[i] = true
	}
	if p.Completion != nil {
		s.matched = make([]bool, n*len(p.Completion.Atoms))
	}
	if part.idx != nil {
		if s.idx = part.idx[lo:hi]; p.local != nil {
			for i, bi := range s.idx {
				p.local[bi] = int32(i)
			}
		}
	}
	// One index per hashed base key, fed the key hashes a routed partition
	// brings; a NULL key, which never matches through equality, is left out.
	for ci := range p.conds {
		key := p.conds[ci].baseKey
		if len(key) == 0 || p.conds[ci].slot != nil {
			continue
		}
		if j := slices.IndexFunc(p.conds, func(cp condProg) bool { return cp.slot == nil && slices.Equal(cp.baseKey, key) }); j < ci {
			s.index[ci] = s.index[j]
			continue
		}
		s.index[ci] = indexPool.Get().(*relation.HashIndex).Build(n, func(i int) (uint64, bool) {
			if part.hash != nil && part.hash[lo+i] != 0 {
				return part.hash[lo+i], true
			}
			return s.rows[i].KeyHash(key) // 0 is a NULL key's hash, and rarely a key's
		})
	}
	s.chunks = make([]*chunk, len(p.conds))
	for ci, cp := range p.conds {
		if len(cp.baseKey) > 0 {
			s.chunks[ci] = chunkPool.Get().(*chunk)
			s.chunks[ci].n, s.chunks[ci].exact = 0, cp.slot != nil || p.exactKey(&cp, s.rows)
		}
	}
	s.basePredOK = make([][]bool, len(p.conds))
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.basePred == nil || cp.unreached {
			continue
		}
		s.basePredOK[ci] = make([]bool, n)
		if err := cp.basePred.Filter(s.rows, s.basePredOK[ci]); err != nil {
			return nil, err
		}
	}
	s.condScan, s.ext, s.rng = make([][]int32, len(p.conds)), make([][]int32, len(p.conds)), make([]*rangeBind, len(p.conds))
	for ci := range p.conds {
		if len(p.conds[ci].baseKey) > 0 || p.conds[ci].unreached {
			continue
		}
		list := make([]int32, 0, n)
		oks, rb := s.basePredOK[ci], p.conds[ci].rng
		for i := range s.rows {
			if (oks == nil || oks[i]) && (rb == nil || !s.rows[i][rb.y].IsNull()) { // a NULL y meets no bound
				list = append(list, int32(i))
			}
		}
		if s.condScan[ci] = list; rb != nil && s.sortRun(rb, list) {
			if s.rng[ci] = rb; rb.z >= 0 {
				s.ext[ci] = s.extremes(rb, list, nil)
			}
		}
	}
	return s, nil
}

// sortPool recycles sortRun's keys: a sort allocates nothing that grows
// with the base.
var sortPool = sync.Pool{New: func() any { return new([]uint64) }}

// sortRun orders a scan list on y if its cells are all INT, FLOAT or
// STRING. Numeric keys are packed above each tuple's offset (ranked first
// if too far apart); the offsets ascend in the list newState builds, so a
// stable radix sort on the bytes above them orders it as a sort of the
// whole keys would. Strings compare where they lie.
func (s *state) sortRun(rb *rangeBind, list []int32) bool {
	n := len(list)
	if n == 0 {
		return true
	}
	kind := s.rows[list[0]][rb.y].Kind()
	switch kind {
	case value.KindBool:
		return false
	case value.KindString:
		for _, i := range list {
			if s.rows[i][rb.y].Kind() != kind {
				return false
			}
		}
		slices.SortStableFunc(list, func(a, b int32) int {
			return strings.Compare(s.rows[a][rb.y].AsString(), s.rows[b][rb.y].AsString())
		})
		return true
	}
	bp := sortPool.Get().(*[]uint64)
	defer sortPool.Put(bp)
	*bp = slices.Grow((*bp)[:0], 2*n)[:2*n]
	keys, free, lo, hi := (*bp)[:n], (*bp)[n:], uint64(math.MaxUint64), uint64(0)
	for k, i := range list {
		v := s.rows[i][rb.y]
		if v.Kind() != kind {
			return false
		}
		keys[k] = sortKey(v)
		lo, hi = min(lo, keys[k]), max(hi, keys[k])
	}
	if hi-lo >= 1<<32 { // rank: a key's is the count of smaller keys
		sorted, ranks := radix(keys, free, 0, 64)
		for k, i := range list {
			r, _ := slices.BinarySearch(sorted, sortKey(s.rows[i][rb.y]))
			ranks[k] = uint64(r)
		}
		keys, free, lo, hi = ranks, sorted, 0, uint64(n)
	}
	for k, i := range list {
		keys[k] = (keys[k]-lo)<<32 | uint64(i)
	}
	sorted, _ := radix(keys, free, 32, 32+bits.Len64(hi-lo))
	for k, key := range sorted {
		list[k] = int32(uint32(key))
	}
	return true
}

// sortKey maps a numeric cell to value.Compare's order: NaN above all,
// -0.0 (+0 makes it 0.0) as 0.0.
func sortKey(v value.Value) uint64 {
	switch {
	case v.Kind() == value.KindInt:
		return uint64(v.AsInt()) ^ 1<<63
	case v.AsFloat() != v.AsFloat():
		return math.MaxUint64
	case v.AsFloat() < 0:
		return ^math.Float64bits(v.AsFloat())
	}
	return math.Float64bits(v.AsFloat()+0) | 1<<63
}

// radix sorts keys stably on bits [from, to), a byte a pass, least
// significant first, through free (as long as keys); a byte every key
// shares costs no pass. It returns the sorted keys and the other buffer.
func radix(keys, free []uint64, from, to int) (sorted, other []uint64) {
	var count [256]int
	for shift := from; shift < to; shift += 8 {
		clear(count[:])
		for _, k := range keys {
			count[byte(k>>shift)]++
		}
		if count[byte(keys[0]>>shift)] == len(keys) {
			continue
		}
		for d, at := 0, 0; d < len(count); d++ {
			count[d], at = at, at+count[d]
		}
		for _, k := range keys {
			d := byte(k >> shift)
			free[count[d]], count[d] = k, count[d]+1
		}
		keys, free = free, keys
	}
	return keys, free
}

// extremes returns per entry the tuple with the largest z at or before
// it in a prefix run, the smallest at or after it in a suffix; -1 while
// all are NULL, nil (no stab) when z's cells do not compare.
func (s *state) extremes(rb *rangeBind, list, ext []int32) []int32 {
	ext, best := slices.Grow(ext[:0], len(list))[:len(list)], int32(-1)
	for j := range list {
		k := j + rb.side*(len(list)-1-2*j) // j, or counting down for a suffix
		switch c := s.rows[list[k]][rb.z]; {
		case c.IsNull():
		case best < 0:
			best = list[k]
		default:
			if cmp, ok := value.Compare(c, s.rows[best][rb.z]); !ok {
				return nil
			} else if cmp == 1-2*rb.side { // above the maximum, below the minimum
				best = list[k]
			}
		}
		ext[k] = best
	}
	return ext
}

// chunk is an indexed condition's scratch for a chunk of the walk: a typed
// condition's matches in walk order, exactKey.
type chunk struct {
	n        int
	pos, det [scanChunk]int32
	exact    bool
}

var chunkPool = sync.Pool{New: func() any { return new(chunk) }}

// indexPool recycles the states' hash indexes and newSlotMap's: a fold
// builds them into the arrays of an earlier one.
var indexPool = sync.Pool{New: func() any { return new(relation.HashIndex) }}

// exactKey: equal hashes are equal keys for cp over rows: one INT or FLOAT
// key vector, base keys FLOATs or INTs within ±2^53 (value.Hash is 1:1 there).
func (p *program) exactKey(cp *condProg, rows []relation.Tuple) bool {
	if v := p.cols[cp.detailKey[0]]; len(cp.detailKey) > 1 || v == nil || v.Boxed != nil || v.Kind != value.KindInt && v.Kind != value.KindFloat {
		return false
	}
	return !slices.ContainsFunc(rows, func(row relation.Tuple) bool {
		c := row[cp.baseKey[0]]
		return c.Kind() == value.KindInt && (c.AsInt() <= -1<<53 || c.AsInt() >= 1<<53) || c.Kind() > value.KindFloat
	})
}

// feed folds the walk's rows [blo, bhi), each across the conditions, up to
// the row it returns: bhi, or the first with every owned tuple decided.
// With no completion nothing retires: the checks run once, not a row.
func (s *state) feed(blo, bhi int) (int, error) {
	p, comp := s.p, s.p.Completion != nil
	if s.remaining == 0 {
		return blo, nil
	} else if !comp {
		s.stats.DetailRows += int64(bhi - blo)
	}
	var one [1]relation.HashEntry
	for j := blo; j < bhi; j++ {
		if comp {
			if s.remaining == 0 {
				return j, nil
			}
			if s.inactive > 0 && (s.inactive*2 > len(s.rows) || s.stats.Probes-s.compacted >= int64(len(s.rows))) {
				s.compact()
			}
			s.stats.DetailRows++
		}
		di := j
		if p.route {
			di = int(s.detail[j])
		}
		s.dside.At = di
		for ci, ch := range s.chunks {
			cp := &p.conds[ci]
			if cp.detailPredOK != nil && !cp.detailPredOK[di] {
				continue
			}
			if ch == nil {
				if err := s.walk(ci, cp, di, p.detail.Rows[di]); err != nil {
					return 0, err
				}
				continue
			}
			h, bucket := uint64(0), one[:0]
			if cp.slot != nil {
				if i := s.own(cp.slot.find(di)); i >= 0 { // the one tuple the slot map finds, if s owns it
					one[0], bucket = relation.HashEntry{Pos: int32(i)}, one[:]
				}
			} else if h = cp.detailHash.H[di]; cp.detailHash.OK[di] {
				bucket = s.index[ci].Bucket(h)
			}
			// One bucket walk, two sinks: the typed fold's buffer, or match.
			probes, done := s.stats.Probes, s.stats.Completed
			for _, e := range bucket {
				i := int(e.Pos)
				if e.Hash != h || !s.active[i] {
					continue
				}
				s.stats.Probes++
				if !ch.exact && !p.keysEqual(s.rows[i], di, cp) || s.basePredOK[ci] != nil && !s.basePredOK[ci][i] {
					continue
				}
				if cp.typed {
					ch.pos[ch.n], ch.det[ch.n], ch.n = int32(s.lo+i), int32(di), ch.n+1
					if s.stats.Matches++; ch.n == scanChunk {
						if err := s.flush(); err != nil {
							return 0, err
						}
					}
					continue
				}
				s.bside.At = s.base(i)
				if ok, err := cp.mixedPred.Pair(&s.bside, &s.dside, s.combined); err != nil {
					return 0, err
				} else if !ok {
					continue
				}
				if err := s.match(i, ci, di, p.detail.Rows[di]); err != nil {
					return 0, err
				}
			}
			// What the walk retired or skipped leaves the live entries after it.
			if comp && cp.slot == nil && (s.stats.Completed != done || s.stats.Probes-probes != int64(len(bucket))) {
				s.index[ci].Retire(h, s.active)
			}
		}
	}
	return bhi, nil
}

// base is owned tuple i's base position.
func (s *state) base(i int) int {
	if s.idx != nil {
		return int(s.idx[i])
	}
	return s.lo + i
}

// own is base position bi's offset in rows, -1 when bi is -1 or s does
// not own it.
func (s *state) own(bi int32) int {
	i := int(bi) - s.lo
	if s.idx != nil && bi >= 0 {
		i = int(s.p.local[bi])
	}
	if bi < 0 || uint(i) >= uint(len(s.rows)) || s.idx != nil && s.idx[i] != bi {
		return -1
	}
	return i
}

// walk visits the active tuples on a fallback condition's scan list —
// of a range-bound θ only the run the row's bounds select, from its inner
// end out — then trims retired entries off both ends.
func (s *state) walk(ci int, cp *condProg, di int, detailRow relation.Tuple) error {
	list, ext, rb := s.condScan[ci], s.ext[ci], s.rng[ci]
	run := [2]int{len(list), 0} // [end, start): cut by an upper and a lower bound
	for side := 0; rb != nil && side < 2 && len(list) > 0; side++ {
		if bd := rb.b[side]; bd.col < 0 {
			continue
		} else if x := detailRow[bd.col]; x.IsNull() {
			return nil // meets no cell
		} else if _, ok := value.Compare(s.rows[list[0]][rb.y], x); ok { // else cuts nothing
			run[side] = sort.Search(len(list), func(i int) bool {
				c, _ := value.Compare(s.rows[list[i]][rb.y], x)
				return c >= bd.t
			})
		}
	}
	k, end, step := run[1], run[0], 1
	if ext != nil && rb.side == 0 {
		k, end, step = end-1, k-1, -1
	}
	for ; (end-k)*step > 0; k += step {
		// Stop once z's extreme over what is left (-1: all NULL) fails
		// z's bound, or does not compare with it, as no z then would.
		if ext != nil {
			if c, ok := value.Compare(s.rows[max(ext[k], 0)][rb.z], detailRow[rb.zb.col]); ext[k] < 0 || !ok || (c >= rb.zb.t) != (step < 0) {
				break
			}
		}
		if i := list[k]; s.active[i] {
			s.stats.Probes++
			s.bside.At = s.base(int(i))
			ok, err := cp.mixedPred.Pair(&s.bside, &s.dside, s.combined)
			if err == nil && ok {
				err = s.match(int(i), ci, di, detailRow)
			}
			if err != nil {
				return err
			}
		}
	}
	f, l := 0, len(list)
	for f < l && !s.active[list[f]] {
		f++
	}
	for l > f && !s.active[list[l-1]] {
		l--
	}
	if s.condScan[ci] = list[f:l]; ext != nil {
		s.ext[ci] = ext[f:l]
	}
	return nil
}

// match records that detailRow, at position di, satisfied condition ci
// for owned tuple i: aggregates are folded (a bare column through cell)
// and completion is advanced.
func (s *state) match(i, ci, di int, detailRow relation.Tuple) error {
	p := s.p
	cp := &p.conds[ci]
	s.stats.Matches++
	row := detailRow
	if cp.pair {
		row = append(append(s.combined[:0], s.rows[i]...), detailRow...)
	}
	for j := cp.aggs[0]; j < cp.aggs[1]; j++ {
		var err error
		if c := p.argCol(cp, j); c >= 0 {
			err = s.res.fold.AddValue(j, s.lo+i, p.cell(di, c))
		} else {
			err = s.res.fold.Add(j, s.lo+i, row)
		}
		if err != nil {
			return err
		}
	}
	if p.Completion == nil || len(cp.atoms) == 0 {
		return nil
	}
	na := len(p.Completion.Atoms)
	matched, changed := s.matched[i*na:(i+1)*na], false
	for _, ai := range cp.atoms {
		if !matched[ai] {
			matched[ai] = true
			changed = true
		}
	}
	if !changed {
		return nil
	}
	switch evalTree(p.Completion.Tree, p.Completion.Atoms, matched) {
	case value.False:
		s.retire(i, -1)
	case value.True:
		if p.Completion.FreezeTrue {
			s.retire(i, 1)
		}
	}
	return nil
}

// flush folds the typed conditions' matches, a loop per aggregate.
func (s *state) flush() error {
	for ci, ch := range s.chunks {
		if cp := &s.p.conds[ci]; cp.typed {
			for j := cp.aggs[0]; j < cp.aggs[1]; j++ {
				var arg *relation.ColVec
				if c := s.p.argCol(cp, j); c >= 0 {
					arg = s.p.cols[c]
				}
				if err := s.res.fold.AddVector(j, ch.pos[:ch.n], ch.det[:ch.n], arg); err != nil {
					return err
				}
			}
			ch.n = 0
		}
	}
	return nil
}

// retire removes an owned tuple from the active set.
func (s *state) retire(i int, decision int8) {
	if !s.active[i] {
		return
	}
	s.active[i] = false
	s.res.decided[s.lo+i] = decision
	s.stats.Completed++
	s.inactive++
	s.remaining--
}

// compact drops retired tuples from the fallback scan lists, in order,
// and recomputes their extremes. feed calls it between detail rows once
// half the owned tuples retired, or some did and the probes since the
// last compaction pay for this one: a stab's extreme that completion
// retired stops no walk until it is recomputed. Never from retire: a
// list compacted while feed iterates it would skip some tuples and visit
// others twice for the current row.
func (s *state) compact() {
	for ci, list := range s.condScan {
		kept := list[:0]
		for _, x := range list {
			if s.active[x] {
				kept = append(kept, x)
			}
		}
		s.condScan[ci] = kept
		if s.ext[ci] != nil {
			s.ext[ci] = s.extremes(s.rng[ci], kept, s.ext[ci])
		}
	}
	s.inactive, s.compacted = 0, s.stats.Probes
}

// evalTree Kleene-evaluates the completion formula: unmatched atoms are
// Unknown; a matched AtomZero is definitively False and a matched
// AtomNonZero definitively True (counts only grow).
func evalTree(t *algebra.BoolTree, atoms []algebra.CompletionAtom, matched []bool) value.Tri {
	if t == nil {
		return value.Unknown
	}
	switch t.Op {
	case algebra.BoolLeaf:
		if !matched[t.Leaf] {
			return value.Unknown
		}
		if atoms[t.Leaf].Kind == algebra.AtomZero {
			return value.False
		}
		return value.True
	case algebra.BoolAnd:
		acc := value.True
		for _, k := range t.Kids {
			acc = acc.And(evalTree(k, atoms, matched))
			if acc == value.False {
				return value.False
			}
		}
		return acc
	case algebra.BoolOr:
		acc := value.False
		for _, k := range t.Kids {
			acc = acc.Or(evalTree(k, atoms, matched))
			if acc == value.True {
				return value.True
			}
		}
		return acc
	case algebra.BoolNot:
		return evalTree(t.Kids[0], atoms, matched).Not()
	default: // BoolOpaque included
		return value.Unknown
	}
}

// emit materializes the output relation from the final result: each
// kept tuple's wide row is built in one scratch tuple and handed to
// Options.Emit, when set, and only the rows emitted are copied out and
// charged against the query budgets. Cancellation is polled every
// scanChunk base tuples.
func (p *program) emit(res result) (*relation.Relation, error) {
	if err := p.Faults.Fire("gmdj.emit", p.Gov); err != nil {
		return nil, err
	}
	step := p.Emit
	if step == nil {
		step = &Emit{Schema: p.outSchema, Row: func(wide relation.Tuple) (relation.Tuple, error) { return wide, nil }}
	}
	// One slab holds every kept row, each capped at its width.
	kept, w, wide := len(res.decided), step.Schema.Len(), make(relation.Tuple, 0, p.baseW+len(p.specs))
	for _, d := range res.decided {
		if d == -1 {
			kept--
		}
	}
	out, slab := relation.New(step.Schema), make(relation.Tuple, kept*w)
	out.Rows = make([]relation.Tuple, 0, kept)
	for bi, baseRow := range p.base.Rows {
		if bi%scanChunk == 0 {
			if err := p.Gov.Check(); err != nil {
				return nil, err
			}
		}
		if res.decided[bi] == -1 {
			continue
		}
		wide = append(wide[:0], baseRow...)
		for j := range p.specs {
			wide = append(wide, res.fold.Result(j, bi))
		}
		row, err := step.Row(wide)
		if err != nil {
			return nil, err
		} else if row == nil {
			continue
		}
		row, slab = append(slab[:0:w], row...), slab[w:]
		if p.Gov != nil || p.Live != nil {
			bytes := row.ApproxBytes()
			p.Live.AddOut(1, bytes)
			if err := p.Gov.AccountAppend(1, bytes); err != nil {
				return nil, err
			}
		}
		out.Append(row)
	}
	return out, nil
}

// partition is a set of base positions the driver evaluates together:
// its tuples are resident at once, each fold range indexing its own.
// Evaluate hands the driver the whole base (or its key partitions); the
// spill regime hands it one hash-prefix slice of it at a time.
type partition struct {
	rows []relation.Tuple // the partition's tuples, in base order
	// idx[i] is rows[i]'s base position. Nil for the whole base, where
	// it is i.
	idx    []int32
	hash   []uint64 // a routed program's: rows[i]'s key hash, 0 for a NULL key
	detail []int32  // a routed program's: the rows routed to the partition
}

// parts cuts the base into its non-empty partitions by the top bits of
// the tuple's hash — or, routed, of the key's (a NULL key, which matches
// nothing but still emits, in partition 0), with the rows routed there;
// those routed to an empty one count as short-circuited.
func (p *program) parts() []partition {
	shift, hs, counts := 64-p.bits, p.hs, make([]int, 1<<p.bits)
	if hs == nil { // unrouted: by the whole tuple
		hs = make([]uint64, len(p.base.Rows))
		for bi, row := range p.base.Rows {
			hs[bi] = row.Hash()
		}
	}
	for _, h := range hs {
		counts[h>>shift]++
	}
	parts := make([]partition, len(counts))
	routes := append(p.routes, make([][]int32, len(parts)-len(p.routes))...) // nil lists unless routed
	for j, n := range counts {
		if parts[j] = (partition{idx: make([]int32, 0, n), rows: make([]relation.Tuple, 0, n), detail: routes[j]}); p.route {
			parts[j].hash = make([]uint64, 0, n)
		}
		if n == 0 {
			p.Stats.ShortCircuitRows += int64(len(routes[j]))
		}
	}
	for bi, row := range p.base.Rows {
		part := &parts[hs[bi]>>shift]
		if part.idx, part.rows = append(part.idx, int32(bi)), append(part.rows, row); p.route {
			part.hash = append(part.hash, hs[bi])
		}
	}
	return slices.DeleteFunc(parts, func(part partition) bool { return len(part.idx) == 0 })
}

// degree is the fold's degree policy: how many base ranges a partition
// of nBase tuples is split into, one detail scan each — chosen by what
// a detail row costs the fold, not by the cores on offer. A hash-bound
// row costs a bitmap test, a hash read and one bucket's probes; a second
// walker would split only the probes (each range indexes its own tuples)
// and repeat the rest: one scan, or a key partition each. A fallback θ
// costs |active base| evaluations per row, which split perfectly by base
// range: shard, given base and detail rows enough for every worker to
// own a real range.
func (p *program) degree(nBase int) int {
	w := p.Workers
	if !p.fallback || w <= 1 || nBase < 2*w || len(p.detail.Rows) < 2*w {
		return 1
	}
	return min(w, runtime.GOMAXPROCS(0)*4)
}

// evalPartition is the one driver behind serial, parallel and spilled
// folds. It splits each partition's positions into one contiguous range
// per worker (degree), builds state sized to each range, its hash
// indexes included, runs the detail scan once per range — inline for one
// range, on govern.RunTasks' pool otherwise — and leaves every tuple's
// decision and aggregates in out by base position, for the single emit.
//
// The fold is base-owned, never detail-sharded: every base tuple's
// aggregates are fed by one goroutine in detail order, so results are
// byte-identical to serial at any degree with no state merge
// (float sums and order-sensitive aggregates included); completion is
// final, and short-circuits, per range; the O(base) state construction
// splits across ranges, on the pool. The price is one detail scan per
// range — none for a key partition, which walks the rows routed to it.
//
// Failure semantics: the first scan to fail (operator error, budget
// violation, cancellation, or recovered panic) trips the pool's stop
// flag; every other scan sees it on its next detail row and returns,
// and Evaluate returns the first error in order of occurrence.
func (p *program) evalPartition(out result, parts ...partition) error {
	type task struct{ part, lo, hi int }
	var tasks []task
	res, workers := make([]result, len(parts)), p.passWorkers
	for pi, part := range parts {
		n, degree := len(part.rows), p.degree(len(part.rows))
		// The whole base folds straight into out; a position list folds
		// into scratch columns that are scattered once the scans are done.
		if res[pi], workers = out, max(workers, degree); part.idx != nil {
			res[pi] = p.newResult(n)
		}
		for w := 0; w < degree; w++ {
			tasks = append(tasks, task{pi, w * n / degree, (w + 1) * n / degree})
		}
	}
	// Build every state, in one phase of its own, before starting any
	// scan, so a failed build cannot strand already-started workers.
	if p.local == nil && parts[0].idx != nil && slices.ContainsFunc(p.conds, func(cp condProg) bool { return cp.slot != nil }) {
		p.local = p.slab(len(p.base.Rows))
	}
	states := make([]*state, len(tasks))
	if _, err := govern.RunTasks(len(tasks), workers, func(_, t int, _ *atomic.Bool) (err error) {
		tk := tasks[t]
		states[t], err = p.newState(&parts[tk.part], tk.lo, tk.hi, res[tk.part])
		return err
	}); err != nil {
		return err
	}
	if _, err := govern.RunTasks(len(tasks), workers, func(w, t int, stop *atomic.Bool) error {
		return p.scan(w, states[t], stop)
	}); err != nil {
		return err
	}
	for _, st := range states {
		for ci, ch := range st.chunks {
			if ch != nil {
				chunkPool.Put(ch)
			}
			if ix := st.index[ci]; ix != nil && !slices.Contains(st.index[:ci], ix) {
				indexPool.Put(ix)
			}
		}
		p.Stats.Merge(&st.stats)
		if len(states) > 1 {
			p.Stats.WorkerRows = append(p.Stats.WorkerRows, st.stats.DetailRows)
		}
	}
	for pi, part := range parts {
		if part.idx == nil {
			continue
		}
		for i, bi := range part.idx {
			out.decided[bi] = res[pi].decided[i]
		}
		res[pi].fold.Scatter(out.fold, part.idx)
	}
	return nil
}

// scanChunk is the cadence, in detail rows, of what a scan shares with
// other goroutines — the cancellation poll and live-dashboard progress:
// prompt for both, yet out of the per-row cost.
const scanChunk = 256

// scan is the fold's detail-scan loop. It walks the detail relation
// once (routed, the rows routed to st), folding each row into st, and
// defines the scan counters: one DetailScans a whole walk, and every
// row walked either fed (DetailRows) or skipped (ShortCircuitRows).
func (p *program) scan(w int, st *state, stop *atomic.Bool) error {
	if p.Tracer != nil {
		defer func(start time.Time) {
			p.Tracer.Span("gmdj", fmt.Sprintf("worker %d base [%d:%d)", w, st.lo, st.lo+len(st.rows)), int64(2+w), start, time.Since(start))
		}(time.Now())
	}
	defer st.flushLive()
	if err := p.Faults.Fire("gmdj.worker", p.Gov); err != nil {
		return err
	}
	n := len(st.detail)
	if !p.route {
		st.stats.DetailScans++
		n = len(p.detail.Rows)
	}
	for blo := 0; blo < n; blo += scanChunk {
		if err := p.Gov.Check(); err != nil {
			return err
		}
		if stop.Load() {
			return nil
		}
		j, err := st.feed(blo, min(blo+scanChunk, n))
		if err == nil {
			err = st.flush()
		}
		if err != nil {
			return err
		} else if st.remaining == 0 { // every owned tuple is decided: the scan short-circuits (§4.2 to its limit)
			st.stats.ShortCircuitRows += int64(n - j)
			return nil
		}
		st.flushLive()
	}
	return nil
}
