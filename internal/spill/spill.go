// Package spill is the engine's file-backed store for operator state
// that no longer fits its memory reservation. Its one user is the
// GMDJ, whose base-state partitions move through it under pressure;
// its GSPL frame is also the durable tier's envelope (frame.go).
//
// Files live under a per-engine scratch directory named
// gmdj-scratch-<pid>-<seq> inside a configurable root; NewScratch
// sweeps stale sibling directories left by crashed processes (dead
// pid) before creating its own, so leaked spill state cannot
// accumulate across runs. Every frame written is
//
//	magic "GSPL" | version 1 | payload length (8B LE) | FNV-1a
//	checksum of the payload (8B LE) | payload
//
// so truncation and at-rest corruption are detected on re-read rather
// than decoded into garbage. Every failure — organic or injected via
// the GMDJ_FAULTS disk actions at sites spill.write and spill.read —
// surfaces as an error wrapping ErrSpillIO and removes the file
// involved.
package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"github.com/olaplab/gmdj/internal/govern"
)

// ErrSpillIO classifies every spill-store failure: disk-full, short
// writes, checksum mismatches on re-read, and injected disk faults.
// Match it with errors.Is.
var ErrSpillIO = errors.New("spill I/O failure")

// Fault-injection sites interpreted by the store (see govern.EnvFaults
// for the disk actions they accept).
const (
	SiteWrite = "spill.write"
	SiteRead  = "spill.read"
)

const (
	frameMagic   = "GSPL"
	frameVersion = 1
	frameHeader  = 4 + 1 + 8 + 8 // magic + version + length + checksum
	scratchStem  = "gmdj-scratch"
)

// scratchSeq distinguishes multiple stores within one process.
var scratchSeq atomic.Int64

// Store writes and reads checksummed spill files inside one scratch
// directory. It is safe for concurrent use. A nil Store is inert: no
// spill capacity (callers must hold state in memory or fail their
// budget).
type Store struct {
	dir          string
	faults       *govern.Injector
	staleRemoved int // crashed runs' directories swept when this store opened

	mu   sync.Mutex
	seq  int64
	live map[string]struct{}

	writes       atomic.Int64
	reads        atomic.Int64
	bytesWritten atomic.Int64
	bytesRead    atomic.Int64
}

// StoreStats is a point-in-time snapshot of store activity.
type StoreStats struct {
	Dir          string `json:"dir"`
	LiveFiles    int    `json:"live_files"`
	Writes       int64  `json:"writes"`
	Reads        int64  `json:"reads"`
	BytesWritten int64  `json:"bytes_written"`
	BytesRead    int64  `json:"bytes_read"`
	// StaleDirsRemoved: crashed runs' directories swept by NewScratch.
	StaleDirsRemoved int `json:"stale_dirs_removed"`
}

// NewStore opens a store rooted at dir, creating it if needed. faults
// may be nil.
func NewStore(dir string, faults *govern.Injector) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: creating scratch dir: %v", ErrSpillIO, err)
	}
	return &Store{dir: dir, faults: faults, live: map[string]struct{}{}}, nil
}

// DefaultRoot is the scratch root NewScratch uses for "": gmdj-spill
// under the system temp directory.
func DefaultRoot() string { return filepath.Join(os.TempDir(), "gmdj-spill") }

// NewScratch sweeps stale scratch directories under root (crashed
// runs: gmdj-scratch-<pid>-* where pid is no longer alive), then
// creates a fresh per-process scratch directory there and opens a
// store on it. The sweep and the create happen under one exclusive
// root lock (see LockRoot): without it, a second store opening
// concurrently under the same root can create its directory between a
// sweeping janitor's stale decision and its RemoveAll — under pid
// reuse the names collide and the janitor deletes the newcomer's live
// scratch directory out from under it.
func NewScratch(root string, faults *govern.Injector) (*Store, error) {
	if root == "" {
		root = DefaultRoot()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("%w: creating scratch root: %v", ErrSpillIO, err)
	}
	unlock, err := LockRoot(root)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSpillIO, err)
	}
	defer unlock()
	removed := SweepStale(root, scratchStem)
	dir := filepath.Join(root, fmt.Sprintf("%s-%d-%d", scratchStem, os.Getpid(), scratchSeq.Add(1)))
	s, err := NewStore(dir, faults)
	if err == nil {
		s.staleRemoved = removed
	}
	return s, err
}

// janitorLockName is the advisory lock file serializing every janitor
// sweep and directory creation under one root, across processes
// (flock) and across owners within a process (flock contends between
// file descriptions).
const janitorLockName = ".janitor.lock"

// LockRoot takes the exclusive janitor lock for root, blocking until
// any concurrent sweep or directory creation finishes, and returns the
// function that releases it (closing the descriptor releases the
// flock). Exported with SweepStale because the profile ring
// (internal/obs/profile) keeps its pid-stamped directories under the
// same discipline.
func LockRoot(root string) (unlock func(), err error) {
	f, err := os.OpenFile(filepath.Join(root, janitorLockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening janitor lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX); err != nil {
		f.Close()
		return nil, fmt.Errorf("locking janitor lock: %w", err)
	}
	return func() { _ = f.Close() }, nil
}

// SweepStale removes the "<stem>-<pid>-<seq>" directories under root
// left behind by dead processes, returning how many it removed.
// Directories of live pids (including this process) are kept. The
// caller holds root's janitor lock, so the sweep cannot race a
// concurrently opening owner.
func SweepStale(root, stem string) int {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pid, ok := stalePid(e.Name(), stem)
		if !ok || pid == os.Getpid() || pidAlive(pid) {
			continue
		}
		if os.RemoveAll(filepath.Join(root, e.Name())) == nil {
			removed++
		}
	}
	return removed
}

// stalePid parses the owning pid out of "<stem>-<pid>-<seq>".
func stalePid(name, stem string) (int, bool) {
	rest, ok := strings.CutPrefix(name, stem+"-")
	if !ok {
		return 0, false
	}
	pidStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0, false
	}
	pid, err := strconv.Atoi(pidStr)
	if err != nil || pid <= 0 {
		return 0, false
	}
	return pid, true
}

// pidAlive reports whether pid names a live process (signal 0 probe).
func pidAlive(pid int) bool {
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	// EPERM means "alive but not ours" — err only ESRCH/finished means dead.
	return err == nil || errors.Is(err, syscall.EPERM)
}

// Dir returns the scratch directory path ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Write persists one checksummed frame holding payload and returns its
// handle. prefix names the producer in the filename (diagnostics
// only). Disk faults configured at spill.write are enacted here; on
// any failure the partial file is removed and the error wraps
// ErrSpillIO.
func (s *Store) Write(prefix string, payload []byte) (*File, error) {
	if s == nil {
		return nil, fmt.Errorf("%w: no spill store configured", ErrSpillIO)
	}
	if err := s.faults.Fire(SiteWrite, nil); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrSpillIO, SiteWrite, err)
	}
	s.mu.Lock()
	s.seq++
	path := filepath.Join(s.dir, fmt.Sprintf("%s-%06d.spill", prefix, s.seq))
	s.mu.Unlock()

	frame := AppendFrame(make([]byte, 0, frameHeader+len(payload)), payload)

	switch s.faults.Disk(SiteWrite) {
	case govern.DiskENOSPC:
		return nil, fmt.Errorf("%w: writing %s: %v", ErrSpillIO, path, syscall.ENOSPC)
	case govern.DiskShortWrite:
		// Persist only half the frame, then fail exactly as a real short
		// write does — the partial file must not survive.
		_ = os.WriteFile(path, frame[:len(frame)/2], 0o644)
		os.Remove(path)
		return nil, fmt.Errorf("%w: writing %s: short write (%d of %d bytes)", ErrSpillIO, path, len(frame)/2, len(frame))
	case govern.DiskCorrupt:
		// Latent corruption: the write "succeeds" but a payload byte is
		// flipped, so the checksum trips on re-read.
		if len(payload) > 0 {
			frame[frameHeader] ^= 0xFF
		}
	}

	if err := os.WriteFile(path, frame, 0o644); err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("%w: writing %s: %v", ErrSpillIO, path, err)
	}
	s.mu.Lock()
	s.live[path] = struct{}{}
	s.mu.Unlock()
	s.writes.Add(1)
	s.bytesWritten.Add(int64(len(frame)))
	return &File{store: s, path: path, Bytes: int64(len(frame))}, nil
}

// LiveFiles returns how many spill files the store currently holds.
func (s *Store) LiveFiles() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.live)
}

// Stats snapshots store activity (zero value for a nil store).
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	live := len(s.live)
	s.mu.Unlock()
	return StoreStats{
		Dir:              s.dir,
		LiveFiles:        live,
		Writes:           s.writes.Load(),
		Reads:            s.reads.Load(),
		BytesWritten:     s.bytesWritten.Load(),
		BytesRead:        s.bytesRead.Load(),
		StaleDirsRemoved: s.staleRemoved,
	}
}

// RemoveAll deletes the scratch directory and everything in it (engine
// shutdown). The store is unusable afterward.
func (s *Store) RemoveAll() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.live = map[string]struct{}{}
	s.mu.Unlock()
	return os.RemoveAll(s.dir)
}

// File is a handle to one written spill frame.
type File struct {
	store *Store
	path  string
	// Bytes is the on-disk frame size (header + payload).
	Bytes int64
}

// Path returns the file's location (diagnostics).
func (f *File) Path() string { return f.path }

// Read loads the frame back and verifies magic, version, length, and
// checksum, returning the payload. Disk faults configured at
// spill.read are enacted here. A frame that fails verification is an
// ErrSpillIO — the file is removed so the corruption cannot be re-read.
func (f *File) Read() ([]byte, error) {
	s := f.store
	if err := s.faults.Fire(SiteRead, nil); err != nil {
		f.Remove()
		return nil, fmt.Errorf("%w: %s: %w", ErrSpillIO, SiteRead, err)
	}
	frame, err := os.ReadFile(f.path)
	if err != nil {
		f.Remove()
		return nil, fmt.Errorf("%w: reading %s: %v", ErrSpillIO, f.path, err)
	}
	if s.faults.Disk(SiteRead) == govern.DiskCorrupt && len(frame) > frameHeader {
		frame[frameHeader] ^= 0xFF
	}
	payload, _, err := DecodeFrame(frame)
	if err != nil {
		f.Remove()
		return nil, fmt.Errorf("%w: %s: %v", ErrSpillIO, f.path, err)
	}
	s.reads.Add(1)
	s.bytesRead.Add(int64(len(frame)))
	return payload, nil
}

// Remove deletes the file. Idempotent; errors are swallowed (removal
// runs on cleanup paths that must not mask the primary error).
func (f *File) Remove() {
	if f == nil || f.path == "" {
		return
	}
	os.Remove(f.path)
	f.store.mu.Lock()
	delete(f.store.live, f.path)
	f.store.mu.Unlock()
	f.path = ""
}
