package govern

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestRunMorselsCoversEveryRowOnce: at every degree the morsels tile
// [0, n) exactly, inline when one worker or one morsel suffices.
func TestRunMorselsCoversEveryRowOnce(t *testing.T) {
	for _, n := range []int{0, 1, MorselRows, MorselRows + 1, 5*MorselRows + 7} {
		for _, workers := range []int{0, 1, 3, 16} {
			hits := make([]int32, n)
			used, err := RunMorsels(n, workers, func(w, m, lo, hi int) error {
				if lo != m*MorselRows || hi <= lo || hi > n {
					t.Errorf("n=%d: morsel %d = [%d, %d)", n, m, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if want := max(1, min(workers, MorselCount(n))); used != want {
				t.Errorf("n=%d workers=%d: used %d workers, want %d", n, workers, used, want)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: row %d visited %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestRunTasksFirstFailureStopsPool: an error or a worker panic trips
// the stop flag — running tasks see it, unclaimed ones never start —
// and comes back as the pool's error, a panic as *InternalError.
func TestRunTasksFirstFailureStopsPool(t *testing.T) {
	boom := errors.New("boom")
	for name, fail := range map[string]func() error{
		"error": func() error { return boom },
		"panic": func() error { panic("boom") },
	} {
		var started atomic.Int64
		_, err := RunTasks(1000, 4, func(_, task int, stop *atomic.Bool) error {
			started.Add(1)
			if task == 0 {
				return fail()
			}
			for !stop.Load() { // a long task polls the flag
			}
			return nil
		})
		var ie *InternalError
		if name == "error" && !errors.Is(err, boom) || name == "panic" && !(errors.As(err, &ie) && len(ie.Stack) > 0) {
			t.Errorf("%s: err = %v", name, err)
		}
		if n := started.Load(); n > 4 {
			t.Errorf("%s: %d tasks started, want at most one per worker", name, n)
		}
	}
}

// TestRunTasksTaskPanicIsInternalError: a panicking task comes back as
// *InternalError, with its stack, whether it ran inline (one task, or one
// worker) or on the pool.
func TestRunTasksTaskPanicIsInternalError(t *testing.T) {
	for _, c := range []struct{ tasks, workers int }{{1, 1}, {1, 4}, {2, 1}, {2, 2}, {8, 4}} {
		used, err := RunTasks(c.tasks, c.workers, func(_, task int, _ *atomic.Bool) error {
			if task == c.tasks-1 {
				panic("boom")
			}
			return nil
		})
		var ie *InternalError
		if !errors.As(err, &ie) || ie.Panic != "boom" || len(ie.Stack) == 0 || !errors.Is(err, ErrInternal) {
			t.Errorf("%d tasks, %d workers: err = %v (used %d), want *InternalError", c.tasks, c.workers, err, used)
		}
	}
}
