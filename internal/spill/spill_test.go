package spill

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/govern"
)

func newTestStore(t *testing.T, faults *govern.Injector) *Store {
	t.Helper()
	s, err := NewStore(filepath.Join(t.TempDir(), "scratch"), faults)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTrip(t *testing.T) {
	s := newTestStore(t, nil)
	payload := []byte("the quick brown fox")
	f, err := s.Write("part", payload)
	if err != nil {
		t.Fatal(err)
	}
	if s.LiveFiles() != 1 {
		t.Fatalf("live files = %d, want 1", s.LiveFiles())
	}
	got, err := f.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: %q", got)
	}
	f.Remove()
	f.Remove() // idempotent
	if s.LiveFiles() != 0 {
		t.Fatalf("live files after remove = %d, want 0", s.LiveFiles())
	}
	st := s.Stats()
	if st.Writes != 1 || st.Reads != 1 || st.BytesWritten == 0 || st.BytesRead == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyPayload(t *testing.T) {
	s := newTestStore(t, nil)
	f, err := s.Write("empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Read()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("payload = %q, want empty", got)
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	if _, err := s.Write("x", []byte("y")); !errors.Is(err, ErrSpillIO) {
		t.Fatalf("nil store Write err = %v, want ErrSpillIO", err)
	}
	if s.Dir() != "" || s.LiveFiles() != 0 {
		t.Fatal("nil store accessors wrong")
	}
	if s.Stats() != (StoreStats{}) {
		t.Fatal("nil store stats not zero")
	}
	if err := s.RemoveAll(); err != nil {
		t.Fatal(err)
	}
	var f *File
	f.Remove() // must not panic
}

// TestAtRestCorruption flips a payload byte on disk behind the store's
// back and verifies the checksum catches it and the file is removed.
func TestAtRestCorruption(t *testing.T) {
	s := newTestStore(t, nil)
	f, err := s.Write("part", []byte("precious state"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(f.Path())
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(f.Path(), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = f.Read()
	if !errors.Is(err, ErrSpillIO) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v, want ErrSpillIO checksum mismatch", err)
	}
	if s.LiveFiles() != 0 {
		t.Fatalf("corrupt file not removed: %d live", s.LiveFiles())
	}
}

func TestTruncatedFrame(t *testing.T) {
	s := newTestStore(t, nil)
	f, err := s.Write("part", []byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(f.Path())
	if err := os.WriteFile(f.Path(), raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(); !errors.Is(err, ErrSpillIO) {
		t.Fatalf("truncated read err = %v, want ErrSpillIO", err)
	}
}

func TestBadHeader(t *testing.T) {
	s := newTestStore(t, nil)
	f, err := s.Write("part", []byte("payload"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.Path(), []byte("not a frame at all......."), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(); !errors.Is(err, ErrSpillIO) {
		t.Fatalf("bad header err = %v, want ErrSpillIO", err)
	}
}

// Injected disk faults at the write site.
func TestWriteFaults(t *testing.T) {
	cases := []struct {
		action  string
		wantErr bool
	}{
		{"enospc", true},
		{"shortwrite", true},
		{"corrupt", false}, // write "succeeds", read must fail
	}
	for _, c := range cases {
		t.Run(c.action, func(t *testing.T) {
			in, err := govern.ParseFaults("spill.write=" + c.action)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestStore(t, in)
			f, err := s.Write("part", []byte("doomed payload"))
			if c.wantErr {
				if !errors.Is(err, ErrSpillIO) {
					t.Fatalf("err = %v, want ErrSpillIO", err)
				}
				assertEmptyDir(t, s.Dir())
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Read(); !errors.Is(err, ErrSpillIO) {
				t.Fatalf("read of latently corrupted frame err = %v, want ErrSpillIO", err)
			}
			assertEmptyDir(t, s.Dir())
		})
	}
}

func TestReadCorruptFault(t *testing.T) {
	in, err := govern.ParseFaults("spill.read=corrupt")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, in)
	f, err := s.Write("part", []byte("fine on disk"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Read(); !errors.Is(err, ErrSpillIO) {
		t.Fatalf("err = %v, want ErrSpillIO", err)
	}
	assertEmptyDir(t, s.Dir())
}

// Error-action faults (GMDJ_FAULTS "error") at disk sites also surface
// as ErrSpillIO, wrapping the injected error.
func TestErrorFaultAtDiskSite(t *testing.T) {
	in, err := govern.ParseFaults("spill.write=error")
	if err != nil {
		t.Fatal(err)
	}
	s := newTestStore(t, in)
	if _, err := s.Write("part", []byte("x")); !errors.Is(err, ErrSpillIO) || !errors.Is(err, govern.ErrInjected) {
		t.Fatalf("err = %v, want ErrSpillIO wrapping ErrInjected", err)
	}
}

func assertEmptyDir(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("leftover file %s", e.Name())
	}
}

func TestScratchJanitor(t *testing.T) {
	root := t.TempDir()
	// A stale scratch dir from a "crashed" process — pid 4000123 is
	// just under the Linux pid_max ceiling and not plausibly alive in a
	// test environment.
	stale := filepath.Join(root, "gmdj-scratch-4000123-1")
	_ = os.MkdirAll(stale, 0o755)
	_ = os.WriteFile(filepath.Join(stale, "old.spill"), []byte("junk"), 0o644)
	// A dir owned by a live pid (ours) must survive.
	mine := filepath.Join(root, "gmdj-scratch-"+strconv.Itoa(os.Getpid())+"-999")
	_ = os.MkdirAll(mine, 0o755)
	// Not a scratch dir at all: untouched.
	other := filepath.Join(root, "unrelated")
	_ = os.MkdirAll(other, 0o755)

	s, err := NewScratch(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.RemoveAll()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale scratch dir not removed")
	}
	if _, err := os.Stat(mine); err != nil {
		t.Error("live-pid scratch dir removed")
	}
	if _, err := os.Stat(other); err != nil {
		t.Error("unrelated dir removed")
	}
	if !strings.HasPrefix(filepath.Base(s.Dir()), "gmdj-scratch-") {
		t.Errorf("scratch dir %s not under the stem", s.Dir())
	}
}

func TestScratchPid(t *testing.T) {
	cases := []struct {
		name string
		pid  int
		ok   bool
	}{
		{"gmdj-scratch-1234-1", 1234, true},
		{"gmdj-scratch-1234-99", 1234, true},
		{"gmdj-scratch-x-1", 0, false},
		{"gmdj-scratch-1234", 0, false},
		{"other-1234-1", 0, false},
	}
	for _, c := range cases {
		pid, ok := stalePid(c.name, scratchStem)
		if ok != c.ok || (ok && pid != c.pid) {
			t.Errorf("stalePid(%q) = %d, %v; want %d, %v", c.name, pid, ok, c.pid, c.ok)
		}
	}
}

func TestRemoveAll(t *testing.T) {
	s := newTestStore(t, nil)
	for i := 0; i < 3; i++ {
		if _, err := s.Write("part", []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RemoveAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Dir()); !os.IsNotExist(err) {
		t.Fatal("scratch dir survived RemoveAll")
	}
}

// The janitor race regression: a store opening under a root must not
// lose its directory to a janitor sweep deciding staleness from a
// snapshot taken before the create. The fix serializes every sweep and
// create under the root's flock; these tests pin both the lock
// semantics and the survival property.

func TestJanitorLockSerializes(t *testing.T) {
	root := t.TempDir()
	unlock, err := LockRoot(root)
	if err != nil {
		t.Fatal(err)
	}
	// With the lock held, NewScratch must block (flock contends between
	// descriptors even within one process).
	done := make(chan *Store, 1)
	go func() {
		s, err := NewScratch(root, nil)
		if err != nil {
			t.Error(err)
		}
		done <- s
	}()
	select {
	case <-done:
		t.Fatal("NewScratch completed while the janitor lock was held")
	case <-time.After(100 * time.Millisecond):
	}
	unlock()
	select {
	case s := <-done:
		if s != nil {
			s.RemoveAll()
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NewScratch never acquired the released lock")
	}
}

func TestConcurrentScratchOpensAndSweeps(t *testing.T) {
	// Concurrent second-DB opens under one scratch root while janitor
	// sweeps run: every store must keep its directory and its files.
	// Each round also plants a fresh stale dir so the sweeps have real
	// work (and really RemoveAll) while the opens are in flight.
	root := t.TempDir()
	const openers, sweeps = 8, 50
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < sweeps; i++ {
			select {
			case <-stop:
				return
			default:
			}
			stale := filepath.Join(root, "gmdj-scratch-4000123-"+strconv.Itoa(i))
			_ = os.MkdirAll(stale, 0o755)
			if unlock, err := LockRoot(root); err == nil {
				SweepStale(root, scratchStem)
				unlock()
			}
		}
	}()
	for w := 0; w < openers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				s, err := NewScratch(root, nil)
				if err != nil {
					t.Error(err)
					return
				}
				f, err := s.Write("q", []byte("payload"))
				if err != nil {
					t.Errorf("write in fresh scratch: %v", err)
					s.RemoveAll()
					return
				}
				if got, err := f.Read(); err != nil || string(got) != "payload" {
					t.Errorf("read back: %q, %v — scratch dir swept out from under a live store?", got, err)
				}
				if _, err := os.Stat(s.Dir()); err != nil {
					t.Errorf("live scratch dir gone: %v", err)
				}
				s.RemoveAll()
			}
		}()
	}
	wg.Wait()
	close(stop)
}
