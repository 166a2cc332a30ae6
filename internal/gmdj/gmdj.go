// Package gmdj implements the physical evaluation of the generalized
// multi-dimensional join operator MD(B, R, (l₁..lₘ), (θ₁..θₘ)) — the
// paper's core mechanism for subquery evaluation.
//
// Evaluation follows the hash-index strategy of Chatziantoniou et al.
// and Akinde & Böhlen: the base-values relation B is materialized in
// memory; each θᵢ is compiled by splitting its conjuncts into
//
//   - equi-bindings B.x = R.y, which key a hash index over B,
//   - base-only conjuncts, evaluated once per base tuple,
//   - detail-only conjuncts, evaluated once per detail tuple, and
//   - mixed residual conjuncts, evaluated per candidate pair;
//
// the detail relation R is then streamed, each detail tuple probing the
// index (or, when θᵢ has no equi-binding, scanning the active base
// entries, or the sorted run its bounds select when θᵢ is range-bound)
// and folding into per-base aggregate accumulators.
// Intermediate state is bounded by |B| — the property the paper's cost
// argument rests on.
//
// Evaluation has two phases (DESIGN §14). The detail pass (detailPass)
// does what depends on the detail row alone — detail-only conjuncts,
// key hashes — once per row, in morsels, off the query goroutine. The
// fold (evalPartition, scan, feed) owns base tuples: each tuple's
// accumulators are fed by one goroutine in detail order, so results are
// byte-identical at any degree. A routed program (bound on one key) reads
// R once in every regime, each key partition of B folding the rows routed
// to it; only a fallback θ shards the fold by base range (degree).
//
// The optional tuple-completion optimization (§4.2) drops a base tuple
// from the active set the moment the downstream selection's outcome is
// decided, which is what rescues the GMDJ on bindingless conditions
// such as Figure 4's ≠ correlation.
package gmdj

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
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
	// DetailPassWorkers is how many goroutines shared the detail pass;
	// 0 when the pass did not run (serial, or a detail under two morsels).
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
	// Nil for a single-range fold. Merge concatenates, so a spilled run
	// lists every partition's workers in order.
	WorkerRows []int64
	// HashCacheHits / HashCacheMisses count detail-side key-hash
	// partitions reused from (or computed and published to) the
	// cross-query hash cache (Options.HashCache). A hit saves one full
	// hashing pass over the detail relation per condition key set.
	HashCacheHits   int64
	HashCacheMisses int64
	// PackedHashConds counts condition key sets whose detail hash
	// vector was read from the packed columnar segment
	// (Options.PackedHash) instead of hashing row-oriented tuples.
	PackedHashConds int64
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
	s.HashCacheHits += src.HashCacheHits
	s.HashCacheMisses += src.HashCacheMisses
	s.PackedHashConds += src.PackedHashConds
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
	// every scanChunk rows per scan and once per detail-pass morsel (no
	// shared write), and emitted rows are charged against the budgets.
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
	// HashCache, together with a non-empty DetailID, lets the evaluator
	// reuse detail-side key-hash partitions across queries: the vector
	// for (detail relation, key columns) is looked up before being
	// computed, and published — complete — after. DetailID must capture
	// the detail relation's identity AND version, so a stale vector is
	// unreachable by construction.
	HashCache HashCache
	// DetailID identifies the detail relation for HashCache keys
	// (e.g. "Flow#3@7"). Empty disables hash-partition caching.
	DetailID string
	// PackedHash, when non-nil, supplies a serial evaluation's key-hash
	// vectors from the detail table's packed columnar segment
	// (storage.Segment.KeyHashes): per-row hash and validity for the
	// given detail-schema key positions, bit-identical to hashing the
	// tuples. The vectors must describe exactly the rows passed to
	// Evaluate (the executor sets this only for bare table scans).
	PackedHash func(key []int) (h []uint64, ok []bool)
	// Mem, when non-nil, charges the estimated base-state footprint
	// (hash indexes, accumulators, completion flags) against the query's
	// memory reservation before building it. When that cannot supply the
	// bytes, evaluation spills or — Spill nil — fails (govern.ErrMemBudget).
	Mem *mem.Tracker
	// Spill, when non-nil, is the file-backed store used to evict base
	// partitions under memory pressure. Nil turns reservation exhaustion
	// into a hard govern.ErrMemBudget error — the "kill" regime.
	Spill *spill.Store
}

// HashCache is the minimal cache surface the evaluator needs for
// detail-hash reuse (satisfied by plancache.ResultCache). Values are
// immutable after Put.
type HashCache interface {
	Get(key string) (any, bool)
	Put(key string, v any, bytes int64)
}

// detailHashVec is the per-detail-row key-hash partition for one
// key-column set: H[i] is the KeyHash of row i's key columns and OK[i]
// is false where any key component is NULL (never matches) — or, in a
// vector the detail pass filled for this query only, where no condition
// accepted row i and so none will read it.
type detailHashVec struct {
	H  []uint64
	OK []bool
}

// vecPool recycles the vectors the detail pass fills for one query only
// (nine bytes a detail row, most of what a hash-bound query allocates):
// Evaluate returns them after the fold, newVec hands them out again.
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
// the hash vectors: every detailPredOK, and the routed rows.
type passBuf struct {
	ok    []bool
	route []int32
}

var bufPool = sync.Pool{New: func() any { return new(passBuf) }}

// condProg is one compiled θᵢ with its aggregate list.
type condProg struct {
	baseKey    []int      // base-schema positions of equi-binding keys (empty ⇒ fallback)
	detailKey  []int      // detail-schema positions of equi-binding keys
	basePred   *expr.Pred // bound to base schema; nil when absent
	detailPred *expr.Pred // bound to detail schema; nil when absent
	mixedPred  *expr.Pred // bound to base++detail; no conjuncts when absent
	rng        *rangeBind // inequality bindings, which sort a fallback scan list; nil when none
	specs      []agg.Spec
	aggOffset  int   // position of this cond's first aggregate column
	atoms      []int // completion atom indexes watching this condition

	// detailHash, when non-nil, holds the precomputed key hash per detail
	// row, replacing per-row KeyHash calls in feed; conditions on one
	// detailKey share it. passHash marks it as owed to the detail pass,
	// which hashes the rows this condition accepts — every row when
	// publish names the cross-query cache key the complete vector goes
	// out under. Read-only during the fold.
	detailHash *detailHashVec
	passHash   bool
	publish    string
	// detailPredOK, when non-nil, is the detail pass's outcome of
	// detailPred per detail row. Read-only during the fold.
	detailPredOK []bool
}

// program is one compiled GMDJ: everything about the evaluation that
// does not depend on which base tuples are resident. It is built once
// per Evaluate and shared by every partition the driver runs.
type program struct {
	// Options are the caller's, normalized: Stats is never nil, HashCache
	// is nil without a DetailID, PackedHash is dropped once found stale.
	Options
	base, detail *relation.Relation
	baseW        int
	conds        []condProg
	specs        []agg.Spec // every condition's bound aggregates, in output order
	outSchema    *relation.Schema
	// passWorkers is the detail pass's degree; 1 — serial, or a detail
	// under two morsels, too small to repay the goroutines — means no
	// pass: feed does the per-row work inline. fallback records that some
	// condition lacks an equi-binding, which is what makes sharding the
	// fold pay (degree).
	passWorkers int
	fallback    bool
	pooled      []*detailHashVec // unpublished pass vectors, back to vecPool after the fold
	// bits cuts the base into 1<<bits partitions (parts); by key when all
	// conditions are indexed on one (baseKey, detailKey) pair — route — and
	// the pass, run even at degree 1, lists key partition j's rows: routes[j].
	bits   int
	route  bool
	buf    *passBuf
	routes [][]int32
}

// result holds, by base position, what the single emit pass needs:
// each tuple's completion decision (0 undecided, +1 accept (frozen),
// -1 drop) and its accumulator row.
type result struct {
	decided []int8
	accs    [][]agg.Accumulator
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
			// 2 to maxSpillParts partitions, each fitting half the headroom
			for spillBits = 1; 1<<spillBits < maxSpillParts && est>>spillBits > max(opts.Mem.Available()/2, minPartitionBytes); spillBits++ {
			}
		} else {
			return nil, &govern.BudgetError{Kind: govern.ErrMemBudget, Limit: opts.Mem.Available(), Observed: est}
		}
	}
	p, err := compile(base, detail, conds, opts, spillBits)
	if err != nil {
		return nil, err
	}
	if err := p.detailPass(); err != nil {
		return nil, err
	}
	out := result{decided: make([]int8, nBase), accs: make([][]agg.Accumulator, nBase)}
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
		vecPool.Put(v) // the fold is over: emit reads accumulators only
	}
	if p.buf != nil {
		bufPool.Put(p.buf)
	}
	return p.emit(out)
}

// detailPass is the first phase: it walks the detail once, in morsels
// claimed from an atomic counter, filling every condition's
// detailPredOK and every owed key-hash vector, and routing: a routed
// program's rows are counted per (morsel, key partition), then placed at
// the counts' prefix sums. Workers write disjoint index ranges of shared
// vectors, so there is no merge and the outcome cannot depend on which
// worker claimed which morsel. At passWorkers 1 a pass runs only to
// route or to fill a vector the cross-query cache is owed.
func (p *program) detailPass() error {
	n, work, preds := len(p.detail.Rows), p.route, 0
	for _, cp := range p.conds {
		if work = work || cp.passHash || cp.detailPred != nil && p.passWorkers > 1; cp.detailPred != nil {
			preds++
		}
	}
	if !work {
		return nil
	}
	p.buf = bufPool.Get().(*passBuf)
	p.buf.ok = slices.Grow(p.buf.ok[:0], preds*n)[:preds*n]
	for ci, slab := 0, p.buf.ok; ci < len(p.conds); ci++ {
		if cp := &p.conds[ci]; cp.detailPred != nil {
			cp.detailPredOK, slab = slab[:n:n], slab[n:]
		}
	}
	if p.route {
		p.routes = make([][]int32, 1<<p.bits)
	}
	k, counts := len(p.routes), make([]int32, govern.MorselCount(n)*len(p.routes)) // per (morsel, key partition)
	// One span per worker, from the pass's start to its last morsel's end.
	start, ends := time.Now(), make([]time.Time, p.passWorkers)
	var route []int32 // nil while counting
	morsel := func(w, m, lo, hi int) (err error) {
		if route == nil {
			err = p.detailMorsel(lo, hi)
		}
		if p.route && err == nil {
			p.routeMorsel(counts[m*k:(m+1)*k], route, lo, hi)
		}
		ends[w] = time.Now()
		return err
	}
	used, err := govern.RunMorsels(n, p.passWorkers, morsel)
	if err == nil && p.route {
		route = slices.Grow(p.buf.route[:0], n)[:n]
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
		p.buf.route = route
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
		if cp := &p.conds[ci]; cp.publish != "" {
			p.HashCache.Put(cp.publish, cp.detailHash, int64(n)*9)
		}
	}
	return nil
}

// detailMorsel is the detail pass over rows [lo, hi): cancellation polled
// once, then per condition one Filter over the morsel, straight into its
// detailPredOK range, and the key hash of the rows it kept — of every row
// when the vector goes out to the cross-query cache. A row an earlier
// condition on the key already hashed is not hashed again (a NULL key
// is: OK stays false).
func (p *program) detailMorsel(lo, hi int) error {
	if err := p.Gov.Check(); err != nil {
		return err
	}
	rows := p.detail.Rows[lo:hi]
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.detailPredOK != nil {
			if err := cp.detailPred.Filter(rows, cp.detailPredOK[lo:hi]); err != nil {
				return err
			}
		}
		if !cp.passHash {
			continue
		}
		all, vec := cp.detailPredOK == nil || cp.publish != "", cp.detailHash
		for i, row := range rows {
			if di := lo + i; (all || cp.detailPredOK[di]) && !vec.OK[di] {
				vec.H[di], vec.OK[di] = row.KeyHash(cp.detailKey)
			}
		}
	}
	return nil
}

// routeMorsel bumps at[j] for each row of [lo, hi) routed to key partition
// j (some condition keeps it, its key is not NULL), placing it at
// route[at[j]] first when route is set.
func (p *program) routeMorsel(at, route []int32, lo, hi int) {
	vec := p.conds[0].detailHash
rows:
	for di := lo; di < hi; di++ {
		for ci := range p.conds {
			if ok := p.conds[ci].detailPredOK; vec.OK[di] && (ok == nil || ok[di]) {
				j := vec.H[di] >> (64 - p.bits)
				if route != nil {
					route[at[j]] = int32(di)
				}
				at[j]++
				continue rows
			}
		}
	}
}

// estimateStateBytes approximates the resident footprint of the GMDJ
// base state — an admission estimate, not an allocation count: per base
// row, index entries per condition, accumulators, completion flags, and
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
	per := int64(64)                  // accumulator-row slice header + flags
	per += int64(totalAggs) * 48      // accumulator structs
	per += int64(len(conds)) * 24     // index entries + fallback scan lists
	per += base.Rows[0].ApproxBytes() // representative row footprint
	if comp != nil {
		per += int64(len(comp.Atoms)) * 2 // matched flags
	}
	return nBase * per
}

// compile is the preamble every regime shares: it binds and classifies
// every condition, resolves the detail-side key-hash vectors (or leaves
// them to the detail pass), and counts the fallback conditions — once
// per Evaluate, however many partitions the base is then evaluated in.
// spillBits is the spill regime's fan-out, 0 in memory.
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
	if p.DetailID == "" {
		p.HashCache = nil
	}
	outCols := append([]relation.Column{}, base.Schema.Columns...)
	for i, c := range conds {
		cp := &p.conds[i]
		cp.aggOffset = len(p.specs)
		for _, spec := range c.Aggs {
			bound, err := spec.Bind(detail.Schema)
			if err != nil {
				return nil, fmt.Errorf("gmdj: condition %d: %w", i, err)
			}
			cp.specs = append(cp.specs, bound)
			p.specs = append(p.specs, bound)
		}
		outCols = append(outCols, agg.OutputSchema(c.Aggs, "R")...)
		if err := classifyTheta(cp, c.Theta, base.Schema, detail.Schema, combined); err != nil {
			return nil, fmt.Errorf("gmdj: condition %d (%s): %w", i, c.Theta, err)
		}
		if len(cp.baseKey) == 0 {
			p.Stats.FallbackConds++
			p.fallback = true
		}
	}
	if p.Completion != nil {
		for ai, a := range p.Completion.Atoms {
			if a.Cond < 0 || a.Cond >= len(conds) {
				return nil, fmt.Errorf("gmdj: completion atom %d references condition %d of %d", ai, a.Cond, len(conds))
			}
			p.conds[a.Cond].atoms = append(p.conds[a.Cond].atoms, ai)
		}
	}
	p.outSchema = relation.NewSchema(outCols...)
	routed := !p.fallback && len(conds) > 0 && !slices.ContainsFunc(p.conds, func(cp condProg) bool {
		return !slices.Equal(cp.baseKey, p.conds[0].baseKey) || !slices.Equal(cp.detailKey, p.conds[0].detailKey)
	})
	// In memory, a key partition per pass worker.
	for p.bits = spillBits; routed && spillBits == 0 && 1<<p.bits < p.passWorkers; p.bits++ {
	}
	p.route = routed && p.bits > 0
	p.attachHashes()
	return p, nil
}

// buildIndex indexes a partition's tuples, one relation.HashIndex per
// base key, from the key hashes a routed partition brings; a NULL key,
// which never matches through equality, is left out, a fallback
// condition gets nil.
func (p *program) buildIndex(part *partition) []*relation.HashIndex {
	index := make([]*relation.HashIndex, len(p.conds))
	for ci := range p.conds {
		key := p.conds[ci].baseKey
		if j := slices.IndexFunc(p.conds, func(cp condProg) bool { return slices.Equal(cp.baseKey, key) }); j < ci || len(key) == 0 {
			index[ci] = index[j] // nil for a fallback condition
			continue
		}
		index[ci] = relation.NewHashIndex(len(part.rows), func(i int) (uint64, bool) {
			if part.hash != nil && part.hash[i] != 0 {
				return part.hash[i], true
			}
			return part.rows[i].KeyHash(key) // 0 is a NULL key's hash, and rarely a key's
		})
	}
	return index
}

// attachHashes gives every indexed condition its detail-side key-hash
// vector, one per distinct key-column set (coalesced subqueries probing
// the same binding, the common GMDJOpt shape, share it). A cross-query
// cache hit always replaces the hashing. Otherwise a parallel run owes
// the vector to the detail pass; a serial one reads it from the packed
// columnar segment, or — a cache miss with no segment — owes it to an
// inline pass that publishes or routes it, or leaves feed to hash per row.
func (p *program) attachHashes() {
	for i := range p.conds {
		cp := &p.conds[i]
		if len(cp.baseKey) == 0 {
			continue
		}
		for j := 0; j < i && cp.detailHash == nil; j++ {
			if prev := &p.conds[j]; prev.detailHash != nil && slices.Equal(prev.detailKey, cp.detailKey) {
				cp.detailHash, cp.passHash = prev.detailHash, prev.passHash
			}
		}
		if cp.detailHash != nil { // served by the earlier condition's source
			if p.HashCache != nil {
				p.Stats.HashCacheHits++
			} else if !cp.passHash {
				p.Stats.PackedHashConds++
			}
			continue
		}
		key := ""
		if p.HashCache != nil {
			keyCols := make([]string, len(cp.detailKey))
			for k, pos := range cp.detailKey {
				keyCols[k] = strconv.Itoa(pos)
			}
			key = "gmdjhash|" + p.DetailID + "|k" + strings.Join(keyCols, ",")
			if v, ok := p.HashCache.Get(key); ok {
				if vec, ok := v.(*detailHashVec); ok && len(vec.H) == len(p.detail.Rows) {
					cp.detailHash = vec
					p.Stats.HashCacheHits++
					continue
				}
			}
			p.Stats.HashCacheMisses++
		}
		n := len(p.detail.Rows)
		if p.passWorkers <= 1 {
			cp.detailHash = p.packedVec(cp.detailKey)
		}
		switch {
		case cp.detailHash != nil:
			if key != "" {
				p.HashCache.Put(key, cp.detailHash, int64(n)*9)
			}
		case p.passWorkers > 1 || key != "" || p.route:
			cp.detailHash, cp.passHash, cp.publish = newVec(n), true, key
			if key == "" {
				p.pooled = append(p.pooled, cp.detailHash)
			}
		default:
			return // no supplier: feed hashes inline
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
	p.Stats.PackedHashConds++
	return &detailHashVec{H: h, OK: ok}
}

// classifyTheta splits θ's conjuncts into bindings and side-local
// predicates as described in the package comment; which side a conjunct
// reads is algebra.ConjunctSide's call.
func classifyTheta(cp *condProg, theta expr.Expr, baseS, detailS, combined *relation.Schema) error {
	var basePreds, detailPreds, mixedPreds []expr.Expr
	for _, cj := range expr.Conjuncts(theta) {
		// col φ col across sides: = keys the index; <, <=, >, >= stay mixed.
		if cmp, ok := cj.(*expr.Cmp); ok {
			lc, lok := cmp.L.(*expr.Col)
			rc, rok := cmp.R.(*expr.Col)
			if lok && rok {
				ls, lerr := algebra.ConjunctSide(lc, baseS, detailS)
				rs, rerr := algebra.ConjunctSide(rc, baseS, detailS)
				if op := cmp.Op; lerr == nil && rerr == nil && ls != rs {
					if ls == algebra.SideDetail {
						lc, rc, op = rc, lc, op.Flip()
					}
					bi, _ := baseS.Find(lc.Qualifier, lc.Name)
					di, _ := detailS.Find(rc.Qualifier, rc.Name)
					if op == value.EQ {
						cp.baseKey = append(cp.baseKey, bi)
						cp.detailKey = append(cp.detailKey, di)
						continue
					} else if op >= value.LT {
						cp.rng = cp.rng.add(bi, di, op)
					}
				}
			}
		}
		side, err := algebra.ConjunctSide(cj, baseS, detailS)
		if err != nil {
			return err
		}
		switch side {
		case algebra.SideBase:
			basePreds = append(basePreds, cj)
		case algebra.SideDetail:
			detailPreds = append(detailPreds, cj)
		default: // both sides, or a constant
			mixedPreds = append(mixedPreds, cj)
		}
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
	var err error
	if len(basePreds) > 0 {
		if cp.basePred, err = lower(basePreds, baseS); err != nil {
			return err
		}
	}
	if len(detailPreds) > 0 {
		if cp.detailPred, err = lower(detailPreds, detailS); err != nil {
			return err
		}
	}
	cp.mixedPred, err = lower(mixedPreds, combined)
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

func keysEqual(baseRow, detailRow relation.Tuple, baseKey, detailKey []int) bool {
	for k := range baseKey {
		if !value.Equal(baseRow[baseKey[k]], detailRow[detailKey[k]]) {
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
	detail []int32 // routed: the detail rows the scan walks
	// index is the partition's hash index (buildIndex), shared read-only
	// by every range of the partition. Its buckets hand out partition
	// positions, so a hit outside the owned range is another worker's.
	index []*relation.HashIndex
	// accs and decided are the owned windows of the partition's result
	// arrays: what this scan folds is already where emit reads it.
	accs    [][]agg.Accumulator // [tuple][agg]
	decided []int8
	active  []bool
	matched []bool // [tuple × completion atom], one slab
	// combined is the base++detail scratch a mixed predicate's generic
	// conjuncts are handed (expr.Pred.Pair); its kernels read the two
	// tuples where they lie.
	combined relation.Tuple
	sel      [1]bool // Filter's answer for a morsel of one row (feed)
	// basePredOK[c][i] caches base-only conjunct outcomes.
	basePredOK [][]bool
	// condScan is, per condition, the fallback iteration list of owned
	// tuples (nil for indexed conditions). Conditions with a
	// base-only predicate list only the rows that pass it, so e.g. an
	// "x IS NULL" counterexample condition costs nothing on NULL-free
	// data. A range-bound one's is sorted if it can be (rng is then set).
	// Lists are compacted lazily as completion retires entries:
	// inactive counts retirements since the last compaction.
	condScan, ext [][]int32
	rng           []*rangeBind
	inactive      int
	// remaining counts still-active owned tuples; when completion
	// retires the last one the detail scan short-circuits (no base
	// tuple this state owns can change its output anymore).
	remaining int
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
// partition: the per-tuple accumulator rows, completion flags,
// base-predicate cache, and fallback scan lists cover only the owned
// range, so a sharded fold splits the O(base) construction cost and
// memory across workers. res holds the partition's arrays.
func (p *program) newState(part *partition, index []*relation.HashIndex, lo, hi int, res result) (*state, error) {
	n := hi - lo
	s := &state{
		p:         p,
		rows:      part.rows[lo:hi],
		lo:        lo,
		detail:    part.detail,
		index:     index,
		accs:      res.accs[lo:hi],
		decided:   res.decided[lo:hi],
		active:    make([]bool, n),
		combined:  make(relation.Tuple, p.baseW+p.detail.Schema.Len()),
		remaining: n,
	}
	for i := range s.active {
		s.active[i] = true
	}
	agg.NewRows(p.specs, s.accs)
	if p.Completion != nil {
		s.matched = make([]bool, n*len(p.Completion.Atoms))
	}
	s.basePredOK = make([][]bool, len(p.conds))
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.basePred == nil {
			continue
		}
		oks := make([]bool, n)
		for i, row := range s.rows {
			tr, err := cp.basePred.Tri(row)
			if err != nil {
				return nil, err
			}
			oks[i] = tr == value.True
		}
		s.basePredOK[ci] = oks
	}
	s.condScan, s.ext, s.rng = make([][]int32, len(p.conds)), make([][]int32, len(p.conds)), make([]*rangeBind, len(p.conds))
	for ci := range p.conds {
		if index[ci] != nil {
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
// if too far apart) for one slices.Sort; strings compare where they lie.
func (s *state) sortRun(rb *rangeBind, list []int32) bool {
	for _, i := range list {
		if k := s.rows[i][rb.y].Kind(); k != s.rows[list[0]][rb.y].Kind() || k == value.KindBool {
			return false
		}
	}
	if len(list) > 0 && s.rows[list[0]][rb.y].Kind() == value.KindString {
		slices.SortStableFunc(list, func(a, b int32) int {
			return strings.Compare(s.rows[a][rb.y].AsString(), s.rows[b][rb.y].AsString())
		})
		return true
	}
	bp := sortPool.Get().(*[]uint64)
	n := len(list)
	keys, lo, hi := slices.Grow((*bp)[:0], 2*n)[:n], uint64(math.MaxUint64), uint64(0)
	for k, i := range list {
		// value.Compare's order: NaN above all, -0.0 (+0 makes it 0.0) as 0.0.
		switch v := s.rows[i][rb.y]; {
		case v.Kind() == value.KindInt:
			keys[k] = uint64(v.AsInt()) ^ 1<<63
		case v.AsFloat() != v.AsFloat():
			keys[k] = math.MaxUint64
		case v.AsFloat() < 0:
			keys[k] = ^math.Float64bits(v.AsFloat())
		default:
			keys[k] = math.Float64bits(v.AsFloat()+0) | 1<<63
		}
		lo, hi = min(lo, keys[k]), max(hi, keys[k])
	}
	if n > 0 && hi-lo >= 1<<32 {
		ranks := append(keys[n:n], keys...)
		slices.Sort(ranks)
		for k, key := range keys {
			r, _ := slices.BinarySearch(ranks, key)
			keys[k] = uint64(r)
		}
		lo = 0
	}
	for k, i := range list {
		keys[k] = (keys[k]-lo)<<32 | uint64(i)
	}
	slices.Sort(keys)
	for k, key := range keys {
		list[k] = int32(uint32(key))
	}
	*bp = keys
	sortPool.Put(bp)
	return true
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

// feed folds one detail row (at detail position di) into the state.
func (s *state) feed(di int) error {
	if s.inactive*2 > len(s.rows) {
		s.compact()
	}
	p := s.p
	detailRow := p.detail.Rows[di]
	s.stats.DetailRows++
	for ci := range p.conds {
		cp := &p.conds[ci]
		if cp.detailPredOK != nil {
			if !cp.detailPredOK[di] {
				continue
			}
		} else if cp.detailPred != nil { // no pass ran: a morsel of one row
			if err := cp.detailPred.Filter(p.detail.Rows[di:di+1], s.sel[:]); err != nil {
				return err
			}
			if !s.sel[0] {
				continue
			}
		}
		if ix := s.index[ci]; ix != nil {
			h, ok := uint64(0), false
			if vec := cp.detailHash; vec != nil {
				h, ok = vec.H[di], vec.OK[di]
			} else {
				h, ok = detailRow.KeyHash(cp.detailKey)
			}
			if !ok {
				continue
			}
			for _, e := range ix.Bucket(h) {
				if e.Hash != h {
					continue
				}
				s.stats.Probes++
				i := int(e.Pos) - s.lo
				if uint(i) >= uint(len(s.active)) || !s.active[i] {
					continue
				}
				baseRow := s.rows[i]
				if !keysEqual(baseRow, detailRow, cp.baseKey, cp.detailKey) {
					continue
				}
				if oks := s.basePredOK[ci]; oks != nil && !oks[i] {
					continue
				}
				if ok, err := cp.mixedPred.Pair(baseRow, detailRow, s.combined); err != nil {
					return err
				} else if !ok {
					continue
				}
				if err := s.match(i, ci, detailRow); err != nil {
					return err
				}
			}
			continue
		}
		if err := s.walk(ci, cp, detailRow); err != nil {
			return err
		}
	}
	return nil
}

// walk visits the active tuples on a fallback condition's scan list —
// of a range-bound θ only the run the row's bounds select, from its inner
// end out — then trims retired entries off both ends.
func (s *state) walk(ci int, cp *condProg, detailRow relation.Tuple) error {
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
			ok, err := cp.mixedPred.Pair(s.rows[i], detailRow, s.combined)
			if err == nil && ok {
				err = s.match(int(i), ci, detailRow)
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

// match records that detailRow satisfied condition ci for owned tuple
// i: aggregates are folded and completion is advanced.
func (s *state) match(i, ci int, detailRow relation.Tuple) error {
	p := s.p
	cp := &p.conds[ci]
	s.stats.Matches++
	accRow := s.accs[i]
	for k := range cp.specs {
		if err := accRow[cp.aggOffset+k].Add(detailRow); err != nil {
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

// retire removes an owned tuple from the active set.
func (s *state) retire(i int, decision int8) {
	if !s.active[i] {
		return
	}
	s.active[i] = false
	s.decided[i] = decision
	s.stats.Completed++
	s.inactive++
	s.remaining--
}

// compact drops retired tuples from the fallback scan lists, in order,
// and recomputes their extremes. feed calls it between detail rows,
// never from retire: a list compacted while feed iterates it would skip
// some tuples and visit others twice for the current row.
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
	s.inactive = 0
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

// emit materializes the output relation from the final result,
// charging each emitted row against the query budgets.
func (p *program) emit(res result) (*relation.Relation, error) {
	if err := p.Faults.Fire("gmdj.emit", p.Gov); err != nil {
		return nil, err
	}
	// One slab holds every kept row, each capped at its width.
	kept, w := len(res.decided), p.baseW+len(p.specs)
	for _, d := range res.decided {
		if d == -1 {
			kept--
		}
	}
	out, slab := relation.New(p.outSchema), make(relation.Tuple, kept*w)
	out.Rows = make([]relation.Tuple, 0, kept)
	for bi, baseRow := range p.base.Rows {
		if res.decided[bi] == -1 {
			continue
		}
		row := append(slab[:0:w], baseRow...)
		for _, a := range res.accs[bi] {
			row = append(row, a.Result())
		}
		slab = slab[w:]
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
// its tuples are resident at once and one hash index covers exactly
// them. Evaluate hands the driver the whole base (or its key partitions);
// the spill regime hands it one hash-prefix slice of it at a time.
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
	shift, hs, counts := 64-p.bits, make([]uint64, len(p.base.Rows)), make([]int, 1<<p.bits)
	for bi, row := range p.base.Rows {
		if hs[bi] = row.Hash(); p.route {
			hs[bi], _ = row.KeyHash(p.conds[0].baseKey)
		}
		counts[hs[bi]>>shift]++
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
// row costs a bitmap test and a probe, and a second walker would repeat
// both (every scan probes the partition's shared index and discards
// hits outside its range): one scan, or a key partition each. A
// fallback θ costs |active base| evaluations per row, which split
// perfectly by base range: shard, given base and detail rows enough
// for every worker to own a real range.
func (p *program) degree(nBase int) int {
	w := p.Workers
	if !p.fallback || w <= 1 || nBase < 2*w || len(p.detail.Rows) < 2*w {
		return 1
	}
	return min(w, runtime.GOMAXPROCS(0)*4)
}

// evalPartition is the one driver behind serial, parallel and spilled
// folds. It indexes each partition, splits its positions into one
// contiguous range per worker (degree), builds state sized to each
// range, runs the detail scan once per range — inline for one range, on
// govern.RunTasks' pool otherwise — and leaves every tuple's decision
// and accumulators in out by base position, for the single emit.
//
// The fold is base-owned, never detail-sharded: every base tuple's
// accumulators are fed by one goroutine in detail order, so results are
// byte-identical to serial at any degree with no accumulator merge
// (float sums and order-sensitive aggregates included); completion is
// final, and short-circuits, per range; the O(base) state construction
// splits across ranges. The price is one detail scan per range — none
// for a key partition, which walks the rows routed to it.
//
// Failure semantics: the first scan to fail (operator error, budget
// violation, cancellation, or recovered panic) trips the pool's stop
// flag; every other scan sees it on its next detail row and returns,
// and Evaluate returns the first error in order of occurrence.
func (p *program) evalPartition(out result, parts ...partition) error {
	type task struct{ part, lo, hi int }
	var tasks []task
	res, index, workers := make([]result, len(parts)), make([][]*relation.HashIndex, len(parts)), p.passWorkers
	for pi, part := range parts {
		n, degree := len(part.rows), p.degree(len(part.rows))
		// The whole base folds straight into out; a position list folds
		// into scratch arrays that are scattered once the scans are done.
		if res[pi], index[pi], workers = out, p.buildIndex(&parts[pi]), max(workers, degree); part.idx != nil {
			res[pi] = result{decided: make([]int8, n), accs: make([][]agg.Accumulator, n)}
		}
		for w := 0; w < degree; w++ {
			tasks = append(tasks, task{pi, w * n / degree, (w + 1) * n / degree})
		}
	}
	// Build every state, in one phase of its own, before starting any
	// scan, so a failed build cannot strand already-started workers.
	states := make([]*state, len(tasks))
	if _, err := govern.RunTasks(len(tasks), workers, func(_, t int, _ *atomic.Bool) (err error) {
		tk := tasks[t]
		states[t], err = p.newState(&parts[tk.part], index[tk.part], tk.lo, tk.hi, res[tk.part])
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
		p.Stats.Merge(&st.stats)
		if len(states) > 1 {
			p.Stats.WorkerRows = append(p.Stats.WorkerRows, st.stats.DetailRows)
		}
	}
	for pi, part := range parts {
		for i, bi := range part.idx {
			out.decided[bi], out.accs[bi] = res[pi].decided[i], res[pi].accs[i]
		}
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
		for j, bhi := blo, min(blo+scanChunk, n); j < bhi; j++ {
			if stop.Load() {
				return nil
			}
			if st.remaining == 0 {
				// Every base tuple this scan owns is decided: no remaining
				// detail row can change its output, so the scan
				// short-circuits (§4.2 taken to its limit).
				st.stats.ShortCircuitRows += int64(n - j)
				return nil
			}
			di := j
			if p.route {
				di = int(st.detail[j])
			}
			if err := st.feed(di); err != nil {
				return err
			}
		}
		st.flushLive()
	}
	return nil
}
