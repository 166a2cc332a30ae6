package mem

import (
	"context"
	"errors"
	"testing"
	"time"
)

// enter runs do (which enters q) on its own goroutine and waits until
// q holds want waiters.
func enter(t *testing.T, q *Queue, want int, do func() error) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- do() }()
	deadline := time.Now().Add(2 * time.Second)
	for q.Stats().Queued < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d waiters (stats %+v)", want, q.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	return errc
}

func pending(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		t.Fatalf("waiter decided early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestQueueFIFOMixedWeights(t *testing.T) {
	q := NewQueue(10, time.Minute)
	if err := q.Enter(context.Background(), 8); err != nil {
		t.Fatal(err)
	}
	large := enter(t, q, 1, func() error { return q.Enter(context.Background(), 10) })
	// 8+1 fits, but the small request arrived behind the large one.
	small := enter(t, q, 2, func() error { return q.Enter(context.Background(), 1) })
	pending(t, small)
	// TryTake is a running query's growth: it ignores the queue.
	if !q.TryTake(2) || q.TryTake(1) {
		t.Fatalf("TryTake past waiters: stats %+v", q.Stats())
	}
	q.Leave(10)
	if err := <-large; err != nil {
		t.Fatal(err)
	}
	pending(t, small) // 10 in use: the head took everything
	q.Leave(10)
	if err := <-small; err != nil {
		t.Fatal(err)
	}
	q.Leave(1)
	want := QueueStats{Capacity: 10, PeakQueued: 2, Admitted: 3, QueuedTotal: 2}
	if got := q.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func TestQueueShedByTimeoutAndCancel(t *testing.T) {
	q := NewQueue(1, 10*time.Millisecond)
	if err := q.Enter(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	err := q.Enter(context.Background(), 1)
	if !errors.Is(err, ErrAdmissionTimeout) || err.Error() != "admission queue timed out after 10ms" {
		t.Fatalf("timed-out Enter = %v", err)
	}
	q.timeout = time.Minute
	ctx, cancel := context.WithCancel(context.Background())
	errc := enter(t, q, 1, func() error { return q.Enter(ctx, 1) })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("canceled Enter = %v, want context.Canceled", err)
	}
	if st := q.Stats(); st.TimedOut != 1 || st.Queued != 0 || st.InUse != 1 || st.Admitted != 1 {
		t.Fatalf("stats = %+v, want one timeout, one admission, nothing queued", st)
	}
}

// TestQueueCancelRacesGrant cancels a waiter just before the units it
// waits for are left: whichever wins, a grant is reported (and must be
// left) and a shed holds nothing, so the queue always ends empty. The
// grant mostly lands first: the waiter then finds both cases ready.
func TestQueueCancelRacesGrant(t *testing.T) {
	q := NewQueue(1, time.Minute)
	for i := 0; i < 200; i++ {
		if err := q.Enter(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		errc := enter(t, q, 1, func() error { return q.Enter(ctx, 1) })
		cancel()
		q.Leave(1)
		switch err := <-errc; {
		case err == nil:
			if st := q.Stats(); st.InUse != 1 {
				t.Fatalf("grant kept but %d in use", st.InUse)
			}
			q.Leave(1)
		case err != context.Canceled:
			t.Fatalf("Enter = %v", err)
		}
		if st := q.Stats(); st.InUse != 0 || st.Queued != 0 {
			t.Fatalf("iteration %d leaked: %+v", i, st)
		}
	}
}

func TestQueueClose(t *testing.T) {
	q := NewQueue(1, time.Minute)
	if err := q.Enter(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	const n = 8
	var waiters []<-chan error
	for i := 1; i <= n; i++ {
		waiters = append(waiters, enter(t, q, i, func() error { return q.Enter(context.Background(), 1) }))
	}
	shed := errors.New("shed")
	q.Close(shed)
	q.Close(errors.New("second close is a no-op"))
	for _, errc := range waiters {
		select {
		case err := <-errc:
			if err != shed {
				t.Fatalf("queued waiter got %v, want the Close error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter deadlocked across Close")
		}
	}
	if err := q.Enter(context.Background(), 1); err != ErrQueueClosed {
		t.Fatalf("Enter after Close = %v, want ErrQueueClosed", err)
	}
	q.Leave(1) // units taken before Close are still left
	if st := q.Stats(); st.InUse != 0 || st.ClosedSheds != n || st.Queued != 0 {
		t.Fatalf("stats after Close = %+v", st)
	}
}
