package mem

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// ErrQueueClosed is what Enter returns on a queue that Close already
// ran on. Callers choose what a closed queue means: the Pool grants an
// unlimited reservation, a serving tenant gate reports draining.
var ErrQueueClosed = errors.New("admission queue closed")

// Queue is a FIFO weighted semaphore: the one admission queue behind
// both the engine's byte Pool and serving's per-tenant in-flight gates.
// Enter takes n units of capacity, waiting in arrival order when they
// are not free — a small request behind a large one waits too, so
// admission stays fair under contention — until Leave returns enough,
// the queue's timeout or ctx ends the wait, or Close sheds it. All
// methods are safe for concurrent use.
type Queue struct {
	capacity int64
	timeout  time.Duration

	mu      sync.Mutex
	used    int64
	waiters []*waiter
	closed  bool
	st      QueueStats // lifetime counters; Stats fills the rest
}

type waiter struct {
	n    int64
	ch   chan struct{} // closed once the wait is decided by Leave or Close
	done bool          // set under Queue.mu when granted, abandoned or shed
	err  error         // set under Queue.mu before close(ch) when shed by Close
}

// QueueStats is a point-in-time snapshot of a Queue.
type QueueStats struct {
	Capacity, InUse int64
	// Queued is the current queue length and PeakQueued its maximum;
	// Admitted, QueuedTotal (had to wait at all), TimedOut and
	// ClosedSheds count Enter calls over the queue's lifetime.
	Queued, PeakQueued                           int
	Admitted, QueuedTotal, TimedOut, ClosedSheds int64
}

// NewQueue creates a queue of capacity units whose waits end after
// timeout.
func NewQueue(capacity int64, timeout time.Duration) *Queue {
	return &Queue{capacity: capacity, timeout: timeout}
}

// Enter takes n units (n <= capacity), queueing FIFO while they are not
// free. nil means granted, and the caller must Leave(n). Otherwise the
// wait was shed: ErrQueueClosed when the queue was already closed,
// Close's error when Close ran during the wait, an error wrapping
// ErrAdmissionTimeout when the timeout expired, or ctx.Err(). A
// cancellation or timeout that races a grant keeps the grant: Enter
// returns nil and the units must still be left.
func (q *Queue) Enter(ctx context.Context, n int64) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	if q.used+n <= q.capacity && len(q.waiters) == 0 {
		q.used += n
		q.st.Admitted++
		q.mu.Unlock()
		return nil
	}
	w := &waiter{n: n, ch: make(chan struct{})}
	q.waiters = append(q.waiters, w)
	q.st.QueuedTotal++
	q.st.PeakQueued = max(q.st.PeakQueued, len(q.waiters))
	q.mu.Unlock()

	deadline := time.NewTimer(q.timeout)
	defer deadline.Stop()
	var err error
	select {
	case <-w.ch:
		return w.err
	case <-ctx.Done():
		err = ctx.Err()
	case <-deadline.C:
		err = fmt.Errorf("%w after %v", ErrAdmissionTimeout, q.timeout)
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if w.done { // granted or shed concurrently: that outcome stands
		return w.err
	}
	w.done = true
	i := slices.Index(q.waiters, w)
	q.waiters = slices.Delete(q.waiters, i, i+1)
	if errors.Is(err, ErrAdmissionTimeout) {
		q.st.TimedOut++
	}
	return err
}

// TryTake takes n units if they are free, ignoring queued waiters: a
// running query growing its grant never queues behind admissions.
func (q *Queue) TryTake(n int64) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.used+n > q.capacity {
		return false
	}
	q.used += n
	return true
}

// Leave returns n units and grants queued waiters in arrival order,
// stopping at the first that does not fit.
func (q *Queue) Leave(n int64) {
	if n <= 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.used = max(q.used-n, 0)
	for len(q.waiters) > 0 && q.used+q.waiters[0].n <= q.capacity {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.used += w.n
		q.st.Admitted++
		w.done = true
		close(w.ch)
	}
}

// Close sheds every queued waiter with err and makes later Enter calls
// return ErrQueueClosed. Units already taken are left as usual.
// Idempotent: a second Close keeps the first error.
func (q *Queue) Close(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		w.done, w.err = true, err
		close(w.ch)
	}
	q.st.ClosedSheds += int64(len(q.waiters))
	q.waiters = nil
}

// Stats snapshots the queue.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.st
	st.Capacity, st.InUse, st.Queued = q.capacity, q.used, len(q.waiters)
	return st
}
