package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// gate is one tenant's admission queue: a mem.Queue over in-flight
// slots, so a single tenant saturating its quota queues (and eventually
// sheds) without starving the others. It only names the tenant in its
// errors and maps cancellation into the governance taxonomy.
type gate struct {
	tenant    string
	admission time.Duration
	q         *mem.Queue
}

func newGate(tenant string, q Quota) *gate {
	a := q.admission()
	return &gate{tenant: tenant, admission: a, q: mem.NewQueue(int64(q.effectiveMax()), a)}
}

// Enter admits one request, blocking FIFO when the tenant is at its
// in-flight cap. It returns the release function for the slot. Shed
// outcomes are typed: admission-deadline expiry wraps
// mem.ErrAdmissionTimeout, request-context cancellation maps through
// the governance taxonomy, and a drain closes the gate with
// ErrDraining.
func (g *gate) Enter(ctx context.Context) (func(), error) {
	switch err := g.q.Enter(ctx, 1); {
	case err == nil:
		return g.leave, nil
	case errors.Is(err, mem.ErrQueueClosed):
		return nil, fmt.Errorf("tenant %q: %w", g.tenant, ErrDraining)
	case errors.Is(err, mem.ErrAdmissionTimeout):
		st := g.q.Stats()
		return nil, fmt.Errorf("tenant %q: %w (%d in flight, cap %d)", g.tenant, err, st.InUse, st.Capacity)
	default: // ctx's error, or the drain's shed error passed through
		return nil, govern.MapContextErr(err)
	}
}

func (g *gate) leave() { g.q.Leave(1) }

// close sheds every queued waiter with ErrDraining and rejects future
// Enter calls. In-flight requests keep their slots until they leave.
func (g *gate) close() {
	g.q.Close(fmt.Errorf("tenant %q: %w: shed from admission queue", g.tenant, ErrDraining))
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
	st := g.q.Stats()
	return TenantStats{
		Tenant:      g.tenant,
		MaxInFlight: int(st.Capacity),
		InFlight:    int(st.InUse),
		Queued:      st.Queued,
		PeakQueued:  st.PeakQueued,
		Admitted:    st.Admitted,
		Shed:        st.TimedOut,
		Drained:     st.ClosedSheds,
		QueuedTotal: st.QueuedTotal,
	}
}
