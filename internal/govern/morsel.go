package govern

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// MorselRows is how many input rows one morsel covers: small enough
// that workers rebalance across skewed predicates, large enough that
// the atomic claim is amortized into noise.
const MorselRows = 4096

// MorselCount returns how many morsels cover n input rows.
func MorselCount(n int) int {
	if n <= 0 {
		return 0
	}
	return (n-1)/MorselRows + 1
}

// MorselWorkers resolves the degree for one morsel-parallel pass over n
// input rows: the configured parallelism, clamped so the fan-out is
// worth its goroutines (at least two morsels of work) and each worker
// can claim at least one morsel.
func MorselWorkers(want, n int) int {
	if want <= 1 || n < 2*MorselRows {
		return 1
	}
	return min(want, MorselCount(n), runtime.GOMAXPROCS(0)*4)
}

// RunTasks drives fn over tasks [0, n) — the one worker pool behind the
// executor's pipelines and both phases of the GMDJ. Workers claim tasks
// from a shared atomic counter: scheduling is dynamic (a worker stuck
// on an expensive task does not stall the rest) while output stays
// deterministic because callers write per task index, never per worker.
//
// fn(worker, task, stop) must be safe for concurrent invocation with
// distinct worker ids; worker-local scratch is indexed by the id. With
// workers <= 1 or a single task everything runs inline on the calling
// goroutine — the serial engine, bit for bit, with no goroutine or
// channel cost.
//
// Failure semantics: the first error (or recovered panic, surfaced as
// *InternalError at every degree — workers run outside the engine's
// panic boundary, which lives on the query goroutine) trips stop; other
// workers quit at their next claim, a long task may poll stop itself to
// quit sooner, and the first error in order of occurrence is returned
// with the number of workers used.
func RunTasks(n, workers int, fn func(worker, task int, stop *atomic.Bool) error) (int, error) {
	var stop atomic.Bool
	run := func(w, t int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = &InternalError{Panic: r, Node: fmt.Sprintf("worker %d", w), Stack: debug.Stack()}
			}
		}()
		return fn(w, t, &stop)
	}
	if workers <= 1 || n <= 1 {
		for t := 0; t < n; t++ {
			if err := run(0, t); err != nil {
				return 1, err
			}
		}
		return 1, nil
	}
	workers = min(workers, n)
	var (
		next     atomic.Int64
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
			for !stop.Load() {
				t := int(next.Add(1)) - 1
				if t >= n {
					return
				}
				if err := run(w, t); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return workers, firstErr
}

// RunMorsels drives fn(worker, morsel, lo, hi) over every MorselRows
// slice of [0, n) through RunTasks.
func RunMorsels(n, workers int, fn func(worker, morsel, lo, hi int) error) (int, error) {
	return RunTasks(MorselCount(n), workers, func(w, m int, _ *atomic.Bool) error {
		lo := m * MorselRows
		return fn(w, m, lo, min(lo+MorselRows, n))
	})
}
