package gmdj_test

import (
	"bytes"
	"context"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/obs"
)

// TestWorkerPoolInheritsProfileLabels pins the attribution contract
// behind olap_tenant_cpu_seconds_total: the pprof labels the engine
// sets around query execution must survive the GMDJ worker-pool
// handoff. The query is hash-bound, so its fold stays on the query
// goroutine and the pool is the detail pass's. The goroutine profile
// (debug=1) groups stacks with their labels, so a stanza holding the
// tenant label and the detail-pass frame, on a goroutine other than
// the query's own (no engine frame beneath it), proves the inheritance
// end to end. Run with -race to also pin the handoff's memory ordering.
// A gmdj.pass delay holds each worker in its morsel: the pass alone is
// too quick for a profile to land in it reliably at GOMAXPROCS=1.
func TestWorkerPoolInheritsProfileLabels(t *testing.T) {
	t.Setenv("GMDJ_FAULTS", "gmdj.pass=delay:20ms")
	// 200k flows make one worker's share of the pass outlast the
	// scheduler's preemption slice, so even on a single P the profile
	// below catches a worker mid-morsel instead of only ever running
	// between queries.
	db := gmdj.OpenNetflowSample(200_000, gmdj.WithParallelism(4))
	defer db.Close()
	ctx := obs.WithTenant(obs.WithRequestID(context.Background(), "req-labels-1"), "acme")

	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if _, err := db.ExecStrategyContext(ctx, obsTestQuery, gmdj.GMDJOpt); err != nil {
				t.Errorf("query: %v", err)
				return
			}
		}
	}()
	defer func() { stop.Store(true); <-done }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err != nil {
			t.Fatalf("goroutine profile: %v", err)
		}
		for _, stanza := range strings.Split(buf.String(), "\n\n") {
			if strings.Contains(stanza, `"tenant":"acme"`) && strings.Contains(stanza, "gmdj.(*program).detailMorsel") &&
				!strings.Contains(stanza, "internal/engine.") {
				return // a labeled worker goroutine, caught in the act
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no goroutine profile stanza carried the tenant label on a detail-pass worker within 10s")
}
