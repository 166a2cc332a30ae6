package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder answers the question "what was the process doing
// when it went wrong?" without anyone attached: when a trigger fires —
// a slow query, SLO error-budget burn, admission-queue depth, memory
// pressure — it atomically writes one self-contained incident bundle
// (profiles, trace-ring dump, slowlog, a /metrics scrape, goroutine
// stacks, config snapshot) into the incidents directory. Bundles are
// rate-limited: a burn storm that trips the probe on every tick
// produces one bundle per MinInterval, with suppressed firings
// counted, never hundreds of bundles.

// Trigger kinds. The recorder accepts arbitrary kinds; these name the
// built-in sources.
const (
	TriggerSlowQuery   = "slow_query"
	TriggerSLOBurn     = "slo_burn"
	TriggerQueueDepth  = "queue_depth"
	TriggerMemPressure = "mem_pressure"
	TriggerLeak        = "goroutine_leak"
	TriggerManual      = "manual"
)

// ManifestName is the bundle's index file.
const ManifestName = "MANIFEST.json"

// ManifestEntry describes one bundle member: its size and FNV-32a
// checksum, or the error that kept its source from producing it.
type ManifestEntry struct {
	Name   string `json:"name"`
	Size   int64  `json:"size"`
	FNV32a string `json:"fnv32a,omitempty"`
	Error  string `json:"error,omitempty"`
}

// Manifest is the bundle's MANIFEST.json: what fired, when, and the
// checksummed member list. olapcheck bundle validates a bundle against
// it.
type Manifest struct {
	Version    int             `json:"version"`
	Trigger    string          `json:"trigger"`
	Reason     string          `json:"reason"`
	Seq        int             `json:"seq"`
	CapturedAt string          `json:"captured_at"`
	Files      []ManifestEntry `json:"files"`
}

// RecorderConfig tunes a Recorder.
type RecorderConfig struct {
	// Dir is the incidents directory (created on demand). Typically
	// <profile root>/incidents.
	Dir string
	// MinInterval rate-limits bundle writes (default 5m). Firings
	// inside the window are counted as suppressed.
	MinInterval time.Duration
	// Retain bounds retained bundles (default 8; oldest pruned).
	Retain int
	// WatchInterval is the probe polling cadence (default 1s).
	WatchInterval time.Duration
}

// RecorderStats is a Recorder snapshot.
type RecorderStats struct {
	Triggered    int64  `json:"triggered"`
	Suppressed   int64  `json:"suppressed"`
	Written      int64  `json:"written"`
	LastBundle   string `json:"last_bundle,omitempty"`
	BundleErrors int64  `json:"bundle_errors"` // admitted triggers whose write failed
}

type probe struct {
	kind string
	fn   func() (bool, string)
}

type triggerReq struct{ kind, reason string }

// Recorder is the incident flight recorder. Sources are registered
// once at wiring time (AddSource) and run on every bundle write;
// probes (AddProbe) are polled by the watch loop started by Start.
// Trigger enqueues an asynchronous bundle write from a request path;
// TriggerSync writes inline (tests, CLI). All methods are
// concurrency-safe.
type Recorder struct {
	cfg RecorderConfig
	now func() time.Time // swapped by tests for deterministic manifests

	mu      sync.Mutex
	sources map[string]func(io.Writer) error
	probes  []probe
	seq     int
	last    time.Time
	lastDir string

	triggered    atomic.Int64
	suppressed   atomic.Int64
	written      atomic.Int64
	bundleErrors atomic.Int64

	startOnce sync.Once
	closeOnce sync.Once
	reqCh     chan triggerReq
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewRecorder opens a recorder writing bundles under cfg.Dir.
func NewRecorder(cfg RecorderConfig) (*Recorder, error) {
	if cfg.Dir == "" {
		return nil, errors.New("profile: RecorderConfig.Dir required")
	}
	if cfg.MinInterval <= 0 {
		cfg.MinInterval = 5 * time.Minute
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 8
	}
	if cfg.WatchInterval <= 0 {
		cfg.WatchInterval = time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	r := &Recorder{
		cfg:     cfg,
		now:     time.Now,
		sources: map[string]func(io.Writer) error{},
		reqCh:   make(chan triggerReq, 4),
		done:    make(chan struct{}),
	}
	// Resume the sequence past bundles a previous process left behind,
	// so a restart into the same incidents directory never collides
	// with (and never fails to rename over) an existing bundle.
	if entries, err := os.ReadDir(cfg.Dir); err == nil {
		for _, e := range entries {
			if seq, ok := bundleSeq(e.Name()); ok && seq > r.seq {
				r.seq = seq
			}
		}
	}
	return r, nil
}

// bundleSeq parses the sequence number out of "incident-%04d-<kind>"
// and "goroutine-leak-%04d" artifact names.
func bundleSeq(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, "incident-")
	if !ok {
		rest, ok = strings.CutPrefix(name, "goroutine-leak-")
	}
	if !ok {
		return 0, false
	}
	digits := rest
	if i := strings.IndexByte(rest, '-'); i >= 0 {
		digits = rest[:i]
	}
	digits = strings.TrimSuffix(strings.TrimSuffix(digits, ".txt"), ".pprof")
	seq := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int(c-'0')
	}
	if len(digits) == 0 {
		return 0, false
	}
	return seq, true
}

// Dir returns the incidents directory.
func (r *Recorder) Dir() string { return r.cfg.Dir }

// AddSource registers a bundle member: name is the file inside the
// bundle (e.g. "trace.json"), fn streams its content. Registering a
// name twice replaces the source.
func (r *Recorder) AddSource(name string, fn func(io.Writer) error) {
	r.mu.Lock()
	r.sources[name] = fn
	r.mu.Unlock()
}

// AddProbe registers a trigger condition polled by the watch loop: fn
// returns (true, reason) when kind should fire.
func (r *Recorder) AddProbe(kind string, fn func() (bool, string)) {
	r.mu.Lock()
	r.probes = append(r.probes, probe{kind: kind, fn: fn})
	r.mu.Unlock()
}

// Start launches the watch loop (probes + asynchronous trigger
// drain). Idempotent.
func (r *Recorder) Start() {
	r.startOnce.Do(func() {
		r.wg.Add(1)
		go r.loop()
	})
}

// Close stops the watch loop and waits. Idempotent; safe without
// Start.
func (r *Recorder) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.wg.Wait()
	})
	return nil
}

func (r *Recorder) loop() {
	defer r.wg.Done()
	tick := time.NewTicker(r.cfg.WatchInterval)
	defer tick.Stop()
	for {
		select {
		case <-r.done:
			return
		case req := <-r.reqCh:
			r.TriggerSync(req.kind, req.reason)
		case <-tick.C:
			r.mu.Lock()
			probes := append([]probe(nil), r.probes...)
			r.mu.Unlock()
			for _, pb := range probes {
				if fired, reason := pb.fn(); fired {
					r.TriggerSync(pb.kind, reason)
				}
			}
		}
	}
}

// Trigger fires asynchronously: rate-limit bookkeeping happens now,
// the bundle write happens on the watch goroutine, so a request
// handler never pays bundle-write latency. No-op (suppressed) inside
// the rate-limit window.
func (r *Recorder) Trigger(kind, reason string) {
	r.triggered.Add(1)
	if !r.admit() {
		return
	}
	select {
	case r.reqCh <- triggerReq{kind: kind, reason: reason}:
	default:
		// Writer busy and queue full: this firing is redundant.
		r.suppressed.Add(1)
	}
}

// admit performs the rate-limit check without claiming the slot.
func (r *Recorder) admit() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.last.IsZero() && r.now().Sub(r.last) < r.cfg.MinInterval {
		r.suppressed.Add(1)
		return false
	}
	return true
}

// TriggerSync writes a bundle inline, honoring the rate limit.
// Returns the bundle directory and whether one was written.
func (r *Recorder) TriggerSync(kind, reason string) (string, bool) {
	r.mu.Lock()
	if !r.last.IsZero() && r.now().Sub(r.last) < r.cfg.MinInterval {
		r.mu.Unlock()
		r.suppressed.Add(1)
		return "", false
	}
	r.seq++
	seq := r.seq
	r.last = r.now()
	when := r.last
	sources := make(map[string]func(io.Writer) error, len(r.sources))
	for k, v := range r.sources {
		sources[k] = v
	}
	r.mu.Unlock()

	dir, err := r.writeBundle(kind, reason, seq, when, sources)
	if err != nil {
		r.bundleErrors.Add(1)
		return "", false
	}
	r.mu.Lock()
	r.lastDir = dir
	r.mu.Unlock()
	r.written.Add(1)
	r.pruneBundles()
	return dir, true
}

// writeBundle writes one bundle atomically: members land in a hidden
// temp directory, the manifest is written last, and a single rename
// publishes the bundle — a reader never observes a partial one.
func (r *Recorder) writeBundle(kind, reason string, seq int, when time.Time, sources map[string]func(io.Writer) error) (string, error) {
	tmp := filepath.Join(r.cfg.Dir, fmt.Sprintf(".tmp-%04d", seq))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	names := make([]string, 0, len(sources)+1)
	for n := range sources {
		names = append(names, n)
	}
	// goroutines.txt is a built-in member: even a recorder with no
	// registered sources produces a debuggable bundle.
	if _, ok := sources["goroutines.txt"]; !ok {
		names = append(names, "goroutines.txt")
		sources["goroutines.txt"] = func(w io.Writer) error { return WriteSnapshotTo("goroutine", w, 2) }
	}
	sort.Strings(names)

	man := Manifest{
		Version:    1,
		Trigger:    kind,
		Reason:     reason,
		Seq:        seq,
		CapturedAt: when.UTC().Format(time.RFC3339Nano),
	}
	for _, name := range names {
		entry := ManifestEntry{Name: name}
		if err := writeMember(filepath.Join(tmp, name), sources[name], &entry); err != nil {
			// A failed source is recorded, not fatal: a bundle missing its
			// CPU profile (none captured yet) still carries everything else.
			entry.Error = err.Error()
			entry.Size, entry.FNV32a = 0, ""
		}
		man.Files = append(man.Files, entry)
	}
	mf, err := os.Create(filepath.Join(tmp, ManifestName))
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(mf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(man); err != nil {
		mf.Close()
		return "", err
	}
	if err := mf.Close(); err != nil {
		return "", err
	}
	final := filepath.Join(r.cfg.Dir, BundleDirName(seq, kind))
	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	return final, nil
}

// BundleDirName is the published bundle directory name for one
// incident.
func BundleDirName(seq int, kind string) string {
	return fmt.Sprintf("incident-%04d-%s", seq, sanitizeKind(kind))
}

func sanitizeKind(kind string) string {
	var b strings.Builder
	for _, c := range kind {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "unknown"
	}
	return b.String()
}

// writeMember streams one source into the bundle, filling the entry's
// size and checksum. A source error removes the partial file.
func writeMember(path string, fn func(io.Writer) error, entry *ManifestEntry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	h := fnv.New32a()
	n := &countingWriter{w: io.MultiWriter(f, h)}
	serr := fn(n)
	cerr := f.Close()
	if serr != nil || cerr != nil {
		os.Remove(path)
		if serr == nil {
			serr = cerr
		}
		return serr
	}
	entry.Size = n.n
	entry.FNV32a = fmt.Sprintf("%08x", h.Sum32())
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// pruneBundles removes the oldest published bundles beyond Retain.
func (r *Recorder) pruneBundles() {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return
	}
	var bundles []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "incident-") {
			bundles = append(bundles, e.Name())
		}
	}
	if len(bundles) <= r.cfg.Retain {
		return
	}
	sort.Strings(bundles) // zero-padded seq: oldest first
	for _, stale := range bundles[:len(bundles)-r.cfg.Retain] {
		_ = os.RemoveAll(filepath.Join(r.cfg.Dir, stale))
	}
}

// DumpGoroutines writes a standalone goroutine dump (full stacks plus
// the protobuf profile) straight into the incidents directory,
// bypassing the rate limit — olapd's leak-check exit path, where the
// process is about to die and this is the post-mortem. Returns the
// text dump's path.
func (r *Recorder) DumpGoroutines(reason string) (string, error) {
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	base := filepath.Join(r.cfg.Dir, fmt.Sprintf("goroutine-leak-%04d", seq))
	txt, err := os.Create(base + ".txt")
	if err != nil {
		return "", err
	}
	fmt.Fprintf(txt, "# %s\n# %s\n", reason, r.now().UTC().Format(time.RFC3339Nano))
	if err := WriteSnapshotTo("goroutine", txt, 2); err != nil {
		txt.Close()
		return "", err
	}
	if err := txt.Close(); err != nil {
		return "", err
	}
	if pb, err := os.Create(base + ".pprof"); err == nil {
		_ = WriteSnapshotTo("goroutine", pb, 0)
		_ = pb.Close()
	}
	return base + ".txt", nil
}

// Bundles lists published bundle directory names, oldest first.
func (r *Recorder) Bundles() []string {
	entries, err := os.ReadDir(r.cfg.Dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "incident-") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out
}

// Stats snapshots the recorder.
func (r *Recorder) Stats() RecorderStats {
	r.mu.Lock()
	last := r.lastDir
	r.mu.Unlock()
	return RecorderStats{
		Triggered:    r.triggered.Load(),
		Suppressed:   r.suppressed.Load(),
		Written:      r.written.Load(),
		BundleErrors: r.bundleErrors.Load(),
		LastBundle:   last,
	}
}
