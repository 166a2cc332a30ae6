// Package mem is the engine's hierarchical byte accountant — the
// substrate that turns the govern package's memory budget from a
// tripwire into a control signal. It tracks three levels:
//
//	Pool        — one per engine: total bytes the engine may hold in
//	              operator state, admitting new queries through a
//	              FIFO Queue when the pool is contended;
//	Reservation — one per query: bytes granted to that query out of
//	              the pool, acquired at admission and released when
//	              the query finishes;
//	Tracker     — one per operator instance: bytes charged against
//	              the query's reservation, so a memory-hungry
//	              operator (the GMDJ base-state hash map, a subquery
//	              materialization) learns it is out of budget *before*
//	              allocating, and can spill instead of erroring.
//
// Every method on those three types is safe on a nil receiver and
// degrades to "unlimited, unaccounted" — exactly as govern's nil
// Governor does — so ungoverned evaluation pays one nil check.
//
// When the pool cannot satisfy a grow request the request fails and the
// operator falls back to its own spill path.
package mem

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrAdmissionTimeout reports that a query waited in the admission
// queue for the engine memory pool and was shed because its deadline
// (the admission timeout, or the query context's own deadline if
// sooner) expired before capacity freed up.
var ErrAdmissionTimeout = errors.New("admission queue timed out")

// ErrExhausted is the internal signal that a reservation (and the pool
// behind it) cannot supply the requested bytes. Operators that can
// degrade treat it as "spill now"; operators that cannot map it to
// govern.ErrMemBudget.
var ErrExhausted = errors.New("memory reservation exhausted")

// ErrPoolClosed reports that the pool was closed while the query
// waited in the admission queue: the engine is shutting down (or its
// disk state was released with DB.Close), so the wait can never be
// satisfied and the query is shed instead of deadlocking.
var ErrPoolClosed = errors.New("memory pool closed")

// DefaultAdmissionTimeout bounds how long a query waits for pool
// capacity before being shed, when the engine does not configure one.
const DefaultAdmissionTimeout = 10 * time.Second

// DefaultQueryReserve is the reservation requested per query at
// admission (clamped to the pool capacity, so a pool smaller than this
// still admits one query at a time).
const DefaultQueryReserve = 1 << 20

// Pool is an engine-wide byte budget: a Queue over bytes that admits
// queries and that a running query's growth takes from. All methods
// are safe for concurrent use; a nil Pool is unlimited.
type Pool struct {
	q *Queue
}

// NewPool creates a pool of capacity bytes. admission bounds the
// admission-queue wait (<= 0 selects DefaultAdmissionTimeout).
// capacity <= 0 returns nil — an unlimited pool is no pool.
func NewPool(capacity int64, admission time.Duration) *Pool {
	if capacity <= 0 {
		return nil
	}
	if admission <= 0 {
		admission = DefaultAdmissionTimeout
	}
	return &Pool{q: NewQueue(capacity, admission)}
}

// Capacity returns the pool capacity (0 for a nil pool).
func (p *Pool) Capacity() int64 {
	if p == nil {
		return 0
	}
	return p.q.capacity
}

// Acquire admits one query: it reserves want bytes (clamped to the
// pool capacity) and returns the query's Reservation. When the pool is
// contended the caller queues FIFO and blocks until capacity frees or
// the earlier of the admission timeout and ctx's own deadline expires,
// in which case the query is shed with ErrAdmissionTimeout (or
// ctx.Err() when the context itself ended). A nil or closed pool
// grants an unlimited (nil) reservation immediately.
func (p *Pool) Acquire(ctx context.Context, want int64) (*Reservation, error) {
	if p == nil {
		return nil, nil
	}
	if want <= 0 {
		want = DefaultQueryReserve
	}
	want = min(want, p.q.capacity)
	switch err := p.q.Enter(ctx, want); {
	case err == nil:
		return &Reservation{pool: p, granted: want}, nil
	case errors.Is(err, ErrQueueClosed):
		// Closed pool: no admission control, no accounting (the engine
		// released its disk state; see Close). Unlimited grant, as if the
		// DB had never configured a limit.
		return nil, nil
	case errors.Is(err, ErrAdmissionTimeout):
		return nil, fmt.Errorf("%w (pool %d/%d bytes in use)", err, p.inUse(), p.q.capacity)
	default:
		return nil, err
	}
}

// Close sheds every queued waiter with an error wrapping ErrPoolClosed
// and marks the pool closed: subsequent Acquire calls return an
// unlimited (nil) reservation, so an engine that released its disk
// state keeps answering purely in-memory queries without admission
// control. In-flight reservations release normally. Idempotent and
// safe to call concurrently with Acquire.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.q.Close(fmt.Errorf("%w: query shed from admission queue", ErrPoolClosed))
}

// free returns the currently unreserved bytes.
func (p *Pool) free() int64 {
	if p == nil {
		return 0
	}
	return p.q.capacity - p.inUse()
}

func (p *Pool) inUse() int64 {
	if p == nil {
		return 0
	}
	return p.q.Stats().InUse
}

// PoolStats is a point-in-time snapshot of the pool.
type PoolStats struct {
	// Capacity and InUse describe the byte budget.
	Capacity int64 `json:"capacity"`
	InUse    int64 `json:"in_use"`
	// Queued is the current admission-queue length; Admitted, TimedOut,
	// QueuedTotal (had to wait at all) and ClosedSheds (shed by Close)
	// count queries over the pool's lifetime.
	Queued      int   `json:"queued"`
	Admitted    int64 `json:"admitted"`
	TimedOut    int64 `json:"timed_out"`
	QueuedTotal int64 `json:"queued_total"`
	ClosedSheds int64 `json:"closed_sheds"`
}

// Utilization is the pool's in-use fraction in [0, 1] (0 for an
// unbounded or absent pool) — the flight recorder's memory-pressure
// trigger compares it against a threshold.
func (s PoolStats) Utilization() float64 {
	if s.Capacity <= 0 {
		return 0
	}
	u := float64(s.InUse) / float64(s.Capacity)
	if u > 1 {
		u = 1
	}
	return u
}

// Stats snapshots the pool (zero value for a nil pool).
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	s := p.q.Stats()
	return PoolStats{
		Capacity:    s.Capacity,
		InUse:       s.InUse,
		Queued:      s.Queued,
		Admitted:    s.Admitted,
		TimedOut:    s.TimedOut,
		QueuedTotal: s.QueuedTotal,
		ClosedSheds: s.ClosedSheds,
	}
}

// Reservation is one query's slice of the pool. Trackers charge
// against it; when it is exhausted it grows from the pool
// (non-blocking — a running query never re-queues for admission). A
// nil Reservation is unlimited.
type Reservation struct {
	pool *Pool

	mu      sync.Mutex
	granted int64 // bytes held from the pool
	used    int64 // bytes charged by trackers
}

// Tracker returns a per-operator tracker charging this reservation.
// Safe on a nil reservation (returns a nil, unlimited tracker).
func (r *Reservation) Tracker(name string) *Tracker {
	if r == nil {
		return nil
	}
	return &Tracker{res: r, name: name}
}

// grow charges n bytes, growing the grant from the pool when needed.
func (r *Reservation) grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	r.mu.Lock()
	if r.used+n <= r.granted {
		r.used += n
		r.mu.Unlock()
		return nil
	}
	need := r.used + n - r.granted
	r.mu.Unlock()
	if !r.pool.q.TryTake(need) { // never blocks
		return fmt.Errorf("%w: need %d more bytes (reservation %d used of %d granted, pool %d/%d)",
			ErrExhausted, need, r.Used(), r.Granted(), r.pool.inUse(), r.pool.Capacity())
	}
	r.mu.Lock()
	r.granted += need
	r.used += n
	r.mu.Unlock()
	return nil
}

// shrink returns n charged bytes to the reservation. The grant itself
// is kept — grown bytes included — until Release returns it to the
// pool, so a query that shrinks and grows again never re-contends.
func (r *Reservation) shrink(n int64) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	r.used -= n
	if r.used < 0 {
		r.used = 0
	}
	r.mu.Unlock()
}

// Available estimates how many more bytes a grow could obtain right
// now: reservation headroom plus the pool's free capacity. Operators
// use it to size spill partitions. Unlimited (nil) reservations report
// a conservatively huge value.
func (r *Reservation) Available() int64 {
	if r == nil {
		return 1 << 60
	}
	r.mu.Lock()
	head := r.granted - r.used
	r.mu.Unlock()
	return head + r.pool.free()
}

// Used returns the bytes currently charged by trackers.
func (r *Reservation) Used() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// Granted returns the bytes currently held from the pool.
func (r *Reservation) Granted() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.granted
}

// Release returns the whole grant to the pool. The query is over;
// outstanding tracker charges are forgotten with it. Idempotent.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	g := r.granted
	r.granted, r.used = 0, 0
	r.mu.Unlock()
	r.pool.q.Leave(g)
}

// Tracker charges one operator's state bytes against a query
// reservation. Not safe for concurrent use by multiple goroutines
// (operators grow on the query goroutine); a nil Tracker is unlimited.
type Tracker struct {
	res  *Reservation
	name string
	used int64
}

// Grow charges n more bytes; ErrExhausted means the reservation and
// pool cannot supply them and the operator should spill (or abort with
// govern.ErrMemBudget if it cannot).
func (t *Tracker) Grow(n int64) error {
	if t == nil || n <= 0 {
		return nil
	}
	if err := t.res.grow(n); err != nil {
		return err
	}
	t.used += n
	return nil
}

// Shrink returns n bytes (clamped to the tracker's own charge).
func (t *Tracker) Shrink(n int64) {
	if t == nil || n <= 0 {
		return
	}
	if n > t.used {
		n = t.used
	}
	t.used -= n
	t.res.shrink(n)
}

// Used returns the tracker's outstanding charge.
func (t *Tracker) Used() int64 {
	if t == nil {
		return 0
	}
	return t.used
}

// Available estimates how much more this tracker could grow by.
func (t *Tracker) Available() int64 {
	if t == nil {
		return 1 << 60
	}
	return t.res.Available()
}

// Release returns everything the tracker still holds (operator done).
func (t *Tracker) Release() {
	if t == nil {
		return
	}
	t.res.shrink(t.used)
	t.used = 0
}

// EnvMem is the environment variable the engine resolves at
// construction (see engine.New): a comma-separated spec configuring a
// constrained-memory engine for a whole test run, e.g.
//
//	GMDJ_MEM="limit=8MiB,spill=/tmp/scratch,admission=2s"
//
// Fields: limit (pool capacity; required for the spec to take effect),
// spill (scratch root; empty keeps the default), admission (queue
// timeout). Sizes accept KiB/MiB/GiB suffixes or raw bytes.
const EnvMem = "GMDJ_MEM"

// EnvConfig is the parsed GMDJ_MEM spec.
type EnvConfig struct {
	Limit     int64
	SpillDir  string
	Admission time.Duration
}

// ParseEnv parses a GMDJ_MEM spec (see EnvMem).
func ParseEnv(spec string) (EnvConfig, error) {
	var cfg EnvConfig
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("mem: spec %q is not key=value", part)
		}
		switch k {
		case "limit":
			n, err := ParseBytes(v)
			if err != nil {
				return cfg, fmt.Errorf("mem: limit: %w", err)
			}
			cfg.Limit = n
		case "spill":
			cfg.SpillDir = v
		case "admission":
			d, err := time.ParseDuration(v)
			if err != nil {
				return cfg, fmt.Errorf("mem: admission: %w", err)
			}
			cfg.Admission = d
		default:
			return cfg, fmt.Errorf("mem: unknown key %q", k)
		}
	}
	if cfg.Limit <= 0 {
		return cfg, fmt.Errorf("mem: spec needs limit=<bytes>")
	}
	return cfg, nil
}

// ParseBytes parses "4096", "64KiB", "8MiB", "1GiB".
func ParseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "KiB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KiB")
	case strings.HasSuffix(s, "MiB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MiB")
	case strings.HasSuffix(s, "GiB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GiB")
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	return n * mult, nil
}

// PerWorkerBytes is the pipeline scratch footprint budgeted per morsel
// worker when clamping parallelism against an engine memory limit:
// each worker holds a concatenated scratch tuple and the output buffers
// of the morsels it has in flight. An estimate — what an admission-style
// clamp needs — not an allocation count. Kept well above the measured
// steady-state footprint (a few tens of KiB) so the clamp errs toward
// serial under tight limits, and well below typical pool sizes so
// moderate limits still parallelize alongside spilling state.
const PerWorkerBytes = 256 << 10

// ClampParallelism bounds a requested morsel-parallel degree by the
// engine memory limit: with a pool of `limit` bytes shared by every
// concurrent query, more than limit/PerWorkerBytes workers could not
// all hold their pipeline scratch resident at once. No limit (<= 0)
// or a serial request passes through unchanged; the result is always
// at least 1.
func ClampParallelism(limit int64, n int) int {
	if limit <= 0 || n <= 1 {
		return n
	}
	max := int(limit / PerWorkerBytes)
	if max < 1 {
		max = 1
	}
	if n > max {
		return max
	}
	return n
}
