package mem

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var p *Pool
	if p.Capacity() != 0 || p.free() != 0 || p.inUse() != 0 {
		t.Fatal("nil pool not zero")
	}
	if got := p.Stats(); got != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", got)
	}
	res, err := p.Acquire(context.Background(), 100)
	if res != nil || err != nil {
		t.Fatalf("nil pool Acquire = %v, %v", res, err)
	}

	var r *Reservation
	if tr := r.Tracker("x"); tr != nil {
		t.Fatal("nil reservation tracker not nil")
	}
	if r.Available() <= 0 || r.Used() != 0 || r.Granted() != 0 {
		t.Fatal("nil reservation accessors wrong")
	}
	r.Release()

	var tr *Tracker
	if err := tr.Grow(1 << 40); err != nil {
		t.Fatalf("nil tracker Grow: %v", err)
	}
	tr.Shrink(5)
	if tr.Used() != 0 {
		t.Fatal("nil tracker Used != 0")
	}
	if tr.Available() <= 0 {
		t.Fatal("nil tracker Available not huge")
	}
	tr.Release()
}

func TestNewPoolDisabled(t *testing.T) {
	if NewPool(0, 0) != nil || NewPool(-5, 0) != nil {
		t.Fatal("non-positive capacity must disable the pool")
	}
}

func TestAcquireAndGrow(t *testing.T) {
	p := NewPool(1000, time.Second)
	res, err := p.Acquire(context.Background(), 400)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Granted(); got != 400 {
		t.Fatalf("granted = %d, want 400", got)
	}
	tr := res.Tracker("op")
	if err := tr.Grow(300); err != nil {
		t.Fatal(err)
	}
	// Within the grant: pool usage unchanged.
	if got := p.inUse(); got != 400 {
		t.Fatalf("pool in use = %d, want 400", got)
	}
	// Beyond the grant: reservation grows from the pool.
	if err := tr.Grow(300); err != nil {
		t.Fatal(err)
	}
	if got := p.inUse(); got != 600 {
		t.Fatalf("pool in use after growth = %d, want 600", got)
	}
	// Beyond the pool: typed exhaustion.
	if err := tr.Grow(1000); !errors.Is(err, ErrExhausted) {
		t.Fatalf("overgrow err = %v, want ErrExhausted", err)
	}
	tr.Shrink(600)
	if got := res.Used(); got != 0 {
		t.Fatalf("used after shrink = %d, want 0", got)
	}
	res.Release()
	if got := p.inUse(); got != 0 {
		t.Fatalf("pool in use after release = %d, want 0", got)
	}
	res.Release() // idempotent
	if got := p.inUse(); got != 0 {
		t.Fatalf("double release leaked: %d", got)
	}
}

func TestAcquireClampsToCapacity(t *testing.T) {
	p := NewPool(100, time.Second)
	res, err := p.Acquire(context.Background(), 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if got := res.Granted(); got != 100 {
		t.Fatalf("granted = %d, want clamp to 100", got)
	}
}

// TestPoolAdmissionErrors holds what the Pool adds to its Queue: the
// texts of a timeout and a Close shed, a cancellation's raw ctx error,
// and the unlimited regime after Close.
func TestPoolAdmissionErrors(t *testing.T) {
	p := NewPool(100, 10*time.Millisecond)
	held, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Acquire(context.Background(), 50)
	if want := "admission queue timed out after 10ms (pool 100/100 bytes in use)"; !errors.Is(err, ErrAdmissionTimeout) || err.Error() != want {
		t.Fatalf("timed-out Acquire = %v, want %q", err, want)
	}
	p.q.timeout = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Acquire(ctx, 50); err != context.Canceled {
		t.Fatalf("canceled Acquire = %v, want context.Canceled", err)
	}
	errc := enter(t, p.q, 1, func() error { _, err := p.Acquire(context.Background(), 50); return err })
	p.Close()
	err = <-errc
	if want := "memory pool closed: query shed from admission queue"; !errors.Is(err, ErrPoolClosed) || err.Error() != want {
		t.Fatalf("shed Acquire = %v, want %q", err, want)
	}
	// Post-close admission is the unlimited, unaccounted regime — the
	// DB stays usable after Close.
	if res, err := p.Acquire(context.Background(), 100); res != nil || err != nil {
		t.Fatalf("Acquire on closed pool = %v, %v, want an unlimited grant", res, err)
	}
	held.Release()
	if s := p.Stats(); s.InUse != 0 || s.TimedOut != 1 || s.ClosedSheds != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestShrinkKeepsGrant: a reservation keeps what it grew until Release.
func TestShrinkKeepsGrant(t *testing.T) {
	p := NewPool(1000, time.Second)
	res, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tracker("op")
	if err := tr.Grow(300); err != nil {
		t.Fatal(err)
	}
	tr.Release()
	if res.Used() != 0 || res.Granted() != 300 || p.Stats().InUse != 300 {
		t.Fatalf("after shrink: used %d, granted %d, pool %d; want 0, 300, 300", res.Used(), res.Granted(), p.Stats().InUse)
	}
	res.Release()
	if res.Granted() != 0 || p.Stats().InUse != 0 {
		t.Fatalf("after Release: granted %d, pool %d", res.Granted(), p.Stats().InUse)
	}
}

func TestAdmissionQueueFIFO(t *testing.T) {
	p := NewPool(100, time.Minute)
	first, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		order int
		res   *Reservation
	}
	results := make(chan result, 2)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		started.Done()
		r, err := p.Acquire(context.Background(), 60)
		if err != nil {
			t.Error(err)
		}
		results <- result{1, r}
	}()
	started.Wait()
	waitQueued(t, p, 1)
	go func() {
		r, err := p.Acquire(context.Background(), 60)
		if err != nil {
			t.Error(err)
		}
		results <- result{2, r}
	}()
	waitQueued(t, p, 2)

	// Releasing frees 100: only the first waiter (60) fits; the second
	// must wait even though it would also fit alone — strict FIFO.
	first.Release()
	got := <-results
	if got.order != 1 {
		t.Fatalf("waiter %d admitted first, want 1", got.order)
	}
	select {
	case r := <-results:
		t.Fatalf("second waiter admitted early: %+v", r)
	case <-time.After(20 * time.Millisecond):
	}
	got.res.Release()
	second := <-results
	if second.order != 2 {
		t.Fatalf("waiter %d admitted second, want 2", second.order)
	}
	second.res.Release()
}

func waitQueued(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (stats %+v)", n, p.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionTimeout(t *testing.T) {
	p := NewPool(100, 10*time.Millisecond)
	res, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	_, err = p.Acquire(context.Background(), 50)
	if !errors.Is(err, ErrAdmissionTimeout) {
		t.Fatalf("err = %v, want ErrAdmissionTimeout", err)
	}
	if s := p.Stats(); s.TimedOut != 1 {
		t.Fatalf("TimedOut = %d, want 1", s.TimedOut)
	}
}

func TestAdmissionCancellation(t *testing.T) {
	p := NewPool(100, time.Minute)
	res, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.Acquire(ctx, 50)
		errc <- err
	}()
	waitQueued(t, p, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s := p.Stats(); s.TimedOut != 0 {
		t.Fatalf("cancellation counted as timeout: %+v", s)
	}
}

func TestAvailable(t *testing.T) {
	p := NewPool(1000, time.Second)
	res, err := p.Acquire(context.Background(), 400)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	if got := res.Available(); got != 1000 {
		t.Fatalf("available = %d, want 1000 (400 headroom + 600 pool)", got)
	}
	tr := res.Tracker("op")
	if err := tr.Grow(400); err != nil {
		t.Fatal(err)
	}
	if got := res.Available(); got != 600 {
		t.Fatalf("available after charge = %d, want 600", got)
	}
}

func TestConcurrentTrackers(t *testing.T) {
	p := NewPool(1<<20, time.Second)
	res, err := p.Acquire(context.Background(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Release()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := res.Tracker("op")
			for j := 0; j < 100; j++ {
				if err := tr.Grow(64); err != nil {
					t.Error(err)
					return
				}
				tr.Shrink(64)
			}
			tr.Release()
		}()
	}
	wg.Wait()
	if got := res.Used(); got != 0 {
		t.Fatalf("used after concurrent churn = %d, want 0", got)
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1024", 1024, true},
		{"8KiB", 8 << 10, true},
		{"16MiB", 16 << 20, true},
		{"2GiB", 2 << 30, true},
		{"64kb", 0, false},
		{"1.5MiB", 0, false},
		{"", 0, false},
		{"junk", 0, false},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBytes(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseBytes(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseEnv(t *testing.T) {
	cfg, err := ParseEnv("limit=8MiB,spill=/tmp/x,admission=2s")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Limit != 8<<20 || cfg.SpillDir != "/tmp/x" || cfg.Admission != 2*time.Second {
		t.Fatalf("cfg = %+v", cfg)
	}
	if _, err := ParseEnv("limit=8MiB,bogus=1"); err == nil {
		t.Fatal("bogus key accepted")
	}
	if _, err := ParseEnv("limit=nope"); err == nil {
		t.Fatal("bad limit accepted")
	}
}

func TestCloseShedsQueuedWaiters(t *testing.T) {
	p := NewPool(100, time.Minute)
	held, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := p.Acquire(context.Background(), 100)
			errs <- err
		}()
	}
	waitQueued(t, p, n)
	p.Close()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrPoolClosed) {
				t.Fatalf("queued waiter got %v, want ErrPoolClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter deadlocked across Close")
		}
	}
	// Post-close admission is the unlimited, unaccounted regime — the
	// DB stays usable after Close.
	res, err := p.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("Acquire on closed pool: %v", err)
	}
	if res != nil {
		t.Fatalf("Acquire on closed pool granted a tracked reservation")
	}
	held.Release()
	p.Close() // idempotent
}

func TestCloseConcurrentWithAcquire(t *testing.T) {
	// Close racing a stream of Acquire/Release pairs: every call must
	// resolve (grant, typed shed, or nil post-close grant) — no
	// deadlock, no panic, clean under -race.
	p := NewPool(200, 50*time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := p.Acquire(context.Background(), 100)
				if err != nil {
					if !errors.Is(err, ErrPoolClosed) && !errors.Is(err, ErrAdmissionTimeout) {
						t.Errorf("Acquire: %v", err)
						return
					}
					continue
				}
				res.Release()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	p.Close()
	wg.Wait()
}
