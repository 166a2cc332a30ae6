package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/mem"
)

// Quota is one tenant's admission envelope. The zero Quota selects the
// defaults below.
type Quota struct {
	// MaxInFlight caps the tenant's concurrent queries; requests beyond
	// it queue FIFO for a slot. <= 0 selects DefaultMaxInFlight.
	MaxInFlight int
	// MemBytes is the tenant's memory-reservation ceiling. When the DB
	// runs with a memory pool, each admitted query seeds a reservation
	// of mem.DefaultQueryReserve bytes, so the ceiling translates to an
	// additional in-flight cap of MemBytes/DefaultQueryReserve — the
	// gate enforces min(MaxInFlight, that cap). 0 = no memory ceiling.
	MemBytes int64
	// Admission bounds how long a request may queue for a slot before
	// being shed with an error wrapping mem.ErrAdmissionTimeout (HTTP
	// 429 + Retry-After). <= 0 selects DefaultAdmission.
	Admission time.Duration
}

// Defaults for the zero Quota.
const (
	DefaultMaxInFlight = 64
	DefaultAdmission   = 2 * time.Second
)

// effectiveMax folds the memory ceiling into the in-flight cap.
func (q Quota) effectiveMax() int {
	max := q.MaxInFlight
	if max <= 0 {
		max = DefaultMaxInFlight
	}
	if q.MemBytes > 0 {
		byMem := int(q.MemBytes / mem.DefaultQueryReserve)
		if byMem < 1 {
			byMem = 1
		}
		if byMem < max {
			max = byMem
		}
	}
	return max
}

func (q Quota) admission() time.Duration {
	if q.Admission <= 0 {
		return DefaultAdmission
	}
	return q.Admission
}

// ParseQuota parses a quota spec: comma-separated key=value with keys
// inflight (int), mem (bytes, KiB/MiB/GiB suffixes), and admission
// (Go duration), e.g. "inflight=8,mem=32MiB,admission=500ms".
func ParseQuota(spec string) (Quota, error) {
	var q Quota
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return q, fmt.Errorf("serve: quota spec %q is not key=value", part)
		}
		switch k {
		case "inflight":
			var n int
			if _, err := fmt.Sscanf(v, "%d", &n); err != nil || n < 1 {
				return q, fmt.Errorf("serve: quota inflight %q: want integer >= 1", v)
			}
			q.MaxInFlight = n
		case "mem":
			n, err := mem.ParseBytes(v)
			if err != nil {
				return q, fmt.Errorf("serve: quota mem: %w", err)
			}
			q.MemBytes = n
		case "admission":
			d, err := time.ParseDuration(v)
			if err != nil {
				return q, fmt.Errorf("serve: quota admission: %w", err)
			}
			q.Admission = d
		default:
			return q, fmt.Errorf("serve: unknown quota key %q", k)
		}
	}
	return q, nil
}

// ParseTenants parses a multi-tenant spec: semicolon-separated
// "name:quota" entries, e.g. "alice:inflight=8,mem=32MiB;bob:inflight=2".
func ParseTenants(spec string) (map[string]Quota, error) {
	out := map[string]Quota{}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, qspec, ok := strings.Cut(entry, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("serve: tenant entry %q is not name:quota", entry)
		}
		q, err := ParseQuota(qspec)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
		}
		out[name] = q
	}
	return out, nil
}

// gate is one tenant's FIFO admission queue: a counting semaphore with
// deadline-aware waiters, mirroring mem.Pool's admission discipline at
// the request level so a single tenant saturating its quota queues (and
// eventually sheds) without starving the others.
type gate struct {
	tenant    string
	max       int
	admission time.Duration

	mu       sync.Mutex
	inFlight int
	queue    []*slotWaiter
	closed   bool

	admitted int64
	queued   int64 // requests that had to wait at all, ever
	shed     int64
	drained  int64
	peak     int
}

type slotWaiter struct {
	ch   chan struct{}
	err  error // written under gate.mu before close(ch)
	done bool
}

func newGate(tenant string, q Quota) *gate {
	return &gate{tenant: tenant, max: q.effectiveMax(), admission: q.admission()}
}

// Enter admits one request, blocking FIFO when the tenant is at its
// in-flight cap. It returns the release function for the slot. Shed
// outcomes are typed: admission-deadline expiry wraps
// mem.ErrAdmissionTimeout, request-context cancellation maps through
// the governance taxonomy, and a drain closes the gate with
// ErrDraining.
func (g *gate) Enter(ctx context.Context) (func(), error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, fmt.Errorf("tenant %q: %w", g.tenant, ErrDraining)
	}
	if g.inFlight < g.max && len(g.queue) == 0 {
		g.inFlight++
		g.admitted++
		g.mu.Unlock()
		return g.leave, nil
	}
	w := &slotWaiter{ch: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.queued++
	if len(g.queue) > g.peak {
		g.peak = len(g.queue)
	}
	g.mu.Unlock()

	deadline := time.NewTimer(g.admission)
	defer deadline.Stop()
	select {
	case <-w.ch:
		return g.granted(w)
	case <-ctx.Done():
		if g.abandon(w, false) {
			return nil, govern.MapContextErr(ctx.Err())
		}
		<-w.ch
		return g.granted(w)
	case <-deadline.C:
		if g.abandon(w, true) {
			return nil, fmt.Errorf("tenant %q: %w after %v (%d in flight, cap %d)",
				g.tenant, mem.ErrAdmissionTimeout, g.admission, g.snapshotInFlight(), g.max)
		}
		<-w.ch
		return g.granted(w)
	}
}

// granted resolves a waiter whose channel closed: a real slot grant or
// a typed shed from close.
func (g *gate) granted(w *slotWaiter) (func(), error) {
	if w.err != nil {
		return nil, w.err
	}
	return g.leave, nil
}

// abandon removes w from the queue; false means w was already granted
// (or shed) and the caller must consume the channel.
func (g *gate) abandon(w *slotWaiter, timedOut bool) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.done {
		return false
	}
	w.done = true
	for i, x := range g.queue {
		if x == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	if timedOut {
		g.shed++
	}
	return true
}

// leave releases one slot and grants the queue head if it fits.
func (g *gate) leave() {
	g.mu.Lock()
	g.inFlight--
	if g.inFlight < 0 {
		g.inFlight = 0
	}
	for len(g.queue) > 0 && g.inFlight < g.max {
		w := g.queue[0]
		g.queue = g.queue[1:]
		w.done = true
		g.inFlight++
		g.admitted++
		close(w.ch)
	}
	g.mu.Unlock()
}

// close sheds every queued waiter with ErrDraining and rejects future
// Enter calls. In-flight requests keep their slots until they leave.
func (g *gate) close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	ws := g.queue
	g.queue = nil
	for _, w := range ws {
		w.done = true
		w.err = fmt.Errorf("tenant %q: %w: shed from admission queue", g.tenant, ErrDraining)
		g.drained++
	}
	g.mu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

func (g *gate) snapshotInFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight
}

// TenantStats is one tenant's point-in-time admission snapshot.
type TenantStats struct {
	Tenant      string `json:"tenant"`
	MaxInFlight int    `json:"max_in_flight"`
	InFlight    int    `json:"in_flight"`
	Queued      int    `json:"queued"`
	PeakQueued  int    `json:"peak_queued"`
	Admitted    int64  `json:"admitted"`
	Shed        int64  `json:"shed"`
	Drained     int64  `json:"drained"`
	QueuedTotal int64  `json:"queued_total"` // requests that ever waited
}

func (g *gate) stats() TenantStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return TenantStats{
		Tenant:      g.tenant,
		MaxInFlight: g.max,
		InFlight:    g.inFlight,
		Queued:      len(g.queue),
		PeakQueued:  g.peak,
		Admitted:    g.admitted,
		Shed:        g.shed,
		Drained:     g.drained,
		QueuedTotal: g.queued,
	}
}
