package exec

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
)

// MorselRows is how many input rows one morsel covers: small enough
// that workers rebalance across skewed predicates, large enough that
// the atomic claim is amortized into noise.
const MorselRows = 4096

// morselCount returns how many morsels cover n input rows.
func morselCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n-1)/MorselRows + 1
}

// pipelineWorkers resolves the degree for one operator pipeline over n
// input rows: the configured parallelism, clamped so the fan-out is
// worth its goroutines (at least two morsels of work) and each worker
// can claim at least one morsel.
func (e *Executor) pipelineWorkers(n int) int {
	w := e.Parallelism
	if w <= 1 || n < 2*MorselRows {
		return 1
	}
	if mc := morselCount(n); w > mc {
		w = mc
	}
	if max := runtime.GOMAXPROCS(0) * 4; w > max {
		w = max
	}
	return w
}

// runMorsels drives fn over every morsel of [0, n). Workers claim
// morsels from a shared atomic counter — the morsel-driven discipline:
// scheduling is dynamic (a worker stuck on an expensive morsel does
// not stall the rest of the input) while output stays deterministic
// because callers buffer per morsel index and concatenate in order.
//
// fn(worker, morsel, lo, hi) must be safe for concurrent invocation
// with distinct worker ids; worker-local scratch is indexed by the id.
// With workers <= 1 everything runs inline on the calling goroutine —
// the serial engine, bit for bit, with no goroutine or channel cost.
//
// Failure semantics mirror the GMDJ pool: the first error (or
// recovered worker panic, surfaced as *govern.InternalError) trips a
// stop flag; other workers quit at their next claim, and the first
// error is returned.
func runMorsels(n, workers int, fn func(worker, morsel, lo, hi int) error) (int, error) {
	nm := morselCount(n)
	if workers <= 1 || nm <= 1 {
		for m := 0; m < nm; m++ {
			lo := m * MorselRows
			hi := lo + MorselRows
			if hi > n {
				hi = n
			}
			if err := fn(0, m, lo, hi); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	if workers > nm {
		workers = nm
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		failOnce sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		failOnce.Do(func() { firstErr = err })
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Workers run outside the engine's panic boundary (which
			// lives on the query goroutine), so each recovers for
			// itself and feeds the same error taxonomy.
			defer func() {
				if r := recover(); r != nil {
					fail(&govern.InternalError{Panic: r, Node: fmt.Sprintf("morsel worker %d", w), Stack: debug.Stack()})
				}
			}()
			for {
				if stop.Load() {
					return
				}
				m := int(next.Add(1)) - 1
				if m >= nm {
					return
				}
				lo := m * MorselRows
				hi := lo + MorselRows
				if hi > n {
					hi = n
				}
				if err := fn(w, m, lo, hi); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return workers, firstErr
}

// workerScratch allocates each worker's scratch tuple: the outer
// context followed by room for width more values, which the operator's
// row loop overwrites per input row before evaluating against it.
func workerScratch(workers int, outer relation.Tuple, width int) []relation.Tuple {
	fulls := make([]relation.Tuple, workers)
	for w := range fulls {
		fulls[w] = make(relation.Tuple, len(outer)+width)
		copy(fulls[w], outer)
	}
	return fulls
}

// concatMorsels joins the per-morsel output buffers in morsel order,
// which is what makes the output independent of which worker claimed
// which morsel.
func concatMorsels(s *relation.Schema, outs [][]relation.Tuple) *relation.Relation {
	n := 0
	for _, rows := range outs {
		n += len(rows)
	}
	out := relation.New(s)
	out.Rows = make([]relation.Tuple, 0, n)
	for _, rows := range outs {
		out.Rows = append(out.Rows, rows...)
	}
	return out
}

// recordWorkers attaches the pipeline's workers= counter to the
// operator's stats-tree node. Nil-safe through Op.Add.
func (q *query) recordWorkers(workers int) {
	if q == nil || q.col == nil {
		return
	}
	q.col.Current().Add("workers", int64(workers))
}
