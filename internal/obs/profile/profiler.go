package profile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"github.com/olaplab/gmdj/internal/spill"
)

// The on-disk profile ring follows the spill store's scratch-dir
// discipline: each process owns a pid-stamped directory
// (olap-prof-<pid>-<seq>) under a shared root, and opening a profiler
// sweeps directories whose owning pid is dead — under the same
// flock-serialized janitor lock, so a sweep can never race a
// concurrently opening profiler into deleting its live ring. Incident
// bundles (flight.go) live under <root>/incidents and are explicitly
// NOT swept: they are post-mortem artifacts that must survive the
// process that wrote them.

const (
	ringStem = "olap-prof"
	// IncidentsDirName is the bundle directory under the profile root.
	IncidentsDirName = "incidents"
)

// ProfileKinds lists the runtime profiles captured per cadence cycle,
// in capture order. CPU is sampled for Config.CPUDuration; the rest
// are point-in-time snapshots.
var ProfileKinds = []string{"cpu", "heap", "goroutine", "mutex", "block"}

// Config tunes a Profiler.
type Config struct {
	// Dir is the profile root. The ring lives in a pid-stamped
	// subdirectory; incident bundles under Dir/incidents.
	Dir string
	// Interval is the capture cadence (default 30s).
	Interval time.Duration
	// CPUDuration is the CPU-profile sampling window per cycle,
	// clamped to Interval/2 (default 2s).
	CPUDuration time.Duration
	// Retain bounds the ring: profiles kept per kind (default 8).
	Retain int
	// MutexFraction is passed to runtime.SetMutexProfileFraction
	// (default 5; 0 keeps the runtime's current setting).
	MutexFraction int
	// BlockRate is passed to runtime.SetBlockProfileRate (default 0 =
	// block profiling off; it is the costliest collector).
	BlockRate int
	// MaxTenants caps distinct tenant keys in the CPU attribution map;
	// tenants beyond the cap fold into "_other" (default 32, matching
	// the serving layer's label cap).
	MaxTenants int
}

// Stats is a Profiler snapshot.
type Stats struct {
	RingDir   string           `json:"ring_dir"`
	Captures  map[string]int64 `json:"captures"`
	Errors    int64            `json:"errors"`
	LastError string           `json:"last_error,omitempty"`
	RingBytes int64            `json:"ring_bytes"`
	// StaleRingsRemoved: dead processes' rings swept when this one opened.
	StaleRingsRemoved int `json:"stale_rings_removed"`
}

// FileInfo describes one ring file for the /debug/olap/profiles index.
type FileInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// Profiler captures runtime profiles on a cadence into the bounded
// on-disk ring and aggregates per-tenant CPU seconds out of each CPU
// capture. Start launches the background loop; Close stops it and
// waits (the profiler owns exactly one goroutine, so olapd's leak
// check holds across a profiler lifecycle).
type Profiler struct {
	cfg          Config
	ringDir      string
	staleRemoved int // by the opening janitor sweep

	mu         sync.Mutex
	seq        int
	cpuSeconds map[string]float64 // tenant -> attributed CPU seconds
	captures   map[string]int64   // kind -> captures written
	errs       int64
	lastErr    string

	startOnce sync.Once
	closeOnce sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	prevMutexFraction int
	prevBlockRate     bool
}

// New opens a profiler rooted at cfg.Dir: sweeps stale rings, claims a
// fresh pid-stamped ring directory, and applies the mutex/block
// profile rates. The background loop does not run until Start.
func New(cfg Config) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, errors.New("profile: Config.Dir required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 2 * time.Second
	}
	if cfg.CPUDuration > cfg.Interval/2 {
		cfg.CPUDuration = cfg.Interval / 2
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 8
	}
	if cfg.MaxTenants <= 0 {
		cfg.MaxTenants = 32
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// The janitor is the spill store's: one lock file and one dead-pid
	// sweep implementation for every pid-stamped directory family.
	unlock, err := spill.LockRoot(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	defer unlock()
	staleRemoved := spill.SweepStale(cfg.Dir, ringStem)
	ringDir, err := claimRingDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	p := &Profiler{
		cfg:          cfg,
		ringDir:      ringDir,
		staleRemoved: staleRemoved,
		cpuSeconds:   map[string]float64{},
		captures:     map[string]int64{},
		done:         make(chan struct{}),
	}
	if cfg.MutexFraction > 0 {
		p.prevMutexFraction = runtime.SetMutexProfileFraction(cfg.MutexFraction)
	} else {
		p.prevMutexFraction = -1
	}
	if cfg.BlockRate > 0 {
		runtime.SetBlockProfileRate(cfg.BlockRate)
		p.prevBlockRate = true
	}
	return p, nil
}

// RingDir returns the process's ring directory.
func (p *Profiler) RingDir() string { return p.ringDir }

// Start launches the cadence loop. Idempotent.
func (p *Profiler) Start() {
	p.startOnce.Do(func() {
		p.wg.Add(1)
		go p.loop()
	})
}

// Close stops the cadence loop, waits for any in-flight capture, and
// restores the runtime profile rates. Idempotent; safe without Start.
func (p *Profiler) Close() error {
	p.closeOnce.Do(func() {
		close(p.done)
		p.wg.Wait()
		if p.prevMutexFraction >= 0 {
			runtime.SetMutexProfileFraction(p.prevMutexFraction)
		}
		if p.prevBlockRate {
			runtime.SetBlockProfileRate(0)
		}
	})
	return nil
}

func (p *Profiler) loop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
			p.captureCycle()
		}
	}
}

// captureCycle runs one cadence iteration: a CPU sampling window, the
// snapshot profiles, attribution, and ring pruning.
func (p *Profiler) captureCycle() {
	if err := p.captureCPU(); err != nil {
		p.noteError(err)
	}
	for _, kind := range []string{"heap", "goroutine", "mutex", "block"} {
		if kind == "block" && p.cfg.BlockRate <= 0 {
			continue
		}
		if _, err := p.captureSnapshot(kind); err != nil {
			p.noteError(err)
		}
	}
	p.prune()
}

// CaptureNow synchronously captures the snapshot profiles (and a CPU
// window when cpu > 0) into the ring, returning the file paths —
// olapql's \profile and test hooks. Safe concurrently with the
// cadence loop.
func (p *Profiler) CaptureNow(cpu time.Duration) ([]string, error) {
	var paths []string
	var firstErr error
	if cpu > 0 {
		saved := p.cfg.CPUDuration
		// CaptureNow windows are caller-bounded, not cadence-bounded.
		p.mu.Lock()
		p.cfg.CPUDuration = cpu
		p.mu.Unlock()
		err := p.captureCPU()
		p.mu.Lock()
		p.cfg.CPUDuration = saved
		lastCPU := p.latestLocked("cpu")
		p.mu.Unlock()
		if err != nil {
			firstErr = err
		} else if lastCPU != "" {
			paths = append(paths, lastCPU)
		}
	}
	for _, kind := range []string{"heap", "goroutine", "mutex"} {
		path, err := p.captureSnapshot(kind)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		paths = append(paths, path)
	}
	p.prune()
	return paths, firstErr
}

// captureCPU samples a CPU profile for the configured window, writes
// it into the ring, and folds its labeled samples into the per-tenant
// attribution counters.
func (p *Profiler) captureCPU() error {
	p.mu.Lock()
	window := p.cfg.CPUDuration
	p.mu.Unlock()
	path := p.nextPath("cpu")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profile: cpu: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		// Another CPU profile is active (a live /debug/pprof/profile
		// scrape, or -test.cpuprofile). Skip this window.
		f.Close()
		os.Remove(path)
		return fmt.Errorf("profile: cpu: %w", err)
	}
	select {
	case <-time.After(window):
	case <-p.done:
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		os.Remove(path)
		return fmt.Errorf("profile: cpu: %w", err)
	}
	p.mu.Lock()
	p.captures["cpu"]++
	p.mu.Unlock()
	if data, err := os.ReadFile(path); err == nil {
		if prof, err := ParseProfile(data); err == nil {
			p.attribute(prof)
		}
	}
	return nil
}

// attribute folds one CPU profile's tenant-labeled samples into the
// running per-tenant CPU-seconds counters, bounded by MaxTenants with
// the serving layer's "_other" fold-over.
func (p *Profiler) attribute(prof *Profile) {
	by := prof.CPUSecondsByLabel(LabelTenant, "")
	if by == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for tenant, secs := range by {
		if tenant == "" {
			continue // unlabeled samples: runtime, scrapes, the profiler itself
		}
		if _, ok := p.cpuSeconds[tenant]; !ok && len(p.cpuSeconds) >= p.cfg.MaxTenants {
			tenant = "_other"
		}
		p.cpuSeconds[tenant] += secs
	}
}

// captureSnapshot writes one point-in-time profile into the ring.
func (p *Profiler) captureSnapshot(kind string) (string, error) {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return "", fmt.Errorf("profile: unknown kind %q", kind)
	}
	path := p.nextPath(kind)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("profile: %s: %w", kind, err)
	}
	werr := prof.WriteTo(f, 0)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(path)
		if werr == nil {
			werr = cerr
		}
		return "", fmt.Errorf("profile: %s: %w", kind, werr)
	}
	p.mu.Lock()
	p.captures[kind]++
	p.mu.Unlock()
	return path, nil
}

// nextPath allocates the next ring filename for kind.
func (p *Profiler) nextPath(kind string) string {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()
	return filepath.Join(p.ringDir, fmt.Sprintf("%s-%06d.pprof", kind, seq))
}

// latestLocked returns the newest ring file for kind (caller holds mu).
func (p *Profiler) latestLocked(kind string) string {
	names, _ := filepath.Glob(filepath.Join(p.ringDir, kind+"-*.pprof"))
	if len(names) == 0 {
		return ""
	}
	sort.Strings(names) // zero-padded seq: lexicographic == numeric
	return names[len(names)-1]
}

// CopyLatestTo streams the newest ring profile of kind to w — the
// flight recorder's "active CPU profile" source.
func (p *Profiler) CopyLatestTo(kind string, w io.Writer) error {
	p.mu.Lock()
	path := p.latestLocked(kind)
	p.mu.Unlock()
	if path == "" {
		return fmt.Errorf("profile: no %s capture in ring yet", kind)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// WriteSnapshotTo writes a fresh snapshot profile (heap, goroutine,
// mutex, block, ...) to w without touching the ring.
func WriteSnapshotTo(kind string, w io.Writer, debug int) error {
	prof := pprof.Lookup(kind)
	if prof == nil {
		return fmt.Errorf("profile: unknown kind %q", kind)
	}
	return prof.WriteTo(w, debug)
}

// prune drops ring files beyond Retain per kind, oldest first.
func (p *Profiler) prune() {
	for _, kind := range ProfileKinds {
		names, _ := filepath.Glob(filepath.Join(p.ringDir, kind+"-*.pprof"))
		if len(names) <= p.cfg.Retain {
			continue
		}
		sort.Strings(names)
		for _, stale := range names[:len(names)-p.cfg.Retain] {
			_ = os.Remove(stale)
		}
	}
}

// TenantCPU snapshots the attributed per-tenant CPU seconds.
func (p *Profiler) TenantCPU() map[string]float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]float64, len(p.cpuSeconds))
	for k, v := range p.cpuSeconds {
		out[k] = v
	}
	return out
}

func (p *Profiler) noteError(err error) {
	p.mu.Lock()
	p.errs++
	p.lastErr = err.Error()
	p.mu.Unlock()
}

// Stats snapshots the profiler.
func (p *Profiler) Stats() Stats {
	p.mu.Lock()
	st := Stats{
		RingDir:           p.ringDir,
		Captures:          make(map[string]int64, len(p.captures)),
		Errors:            p.errs,
		LastError:         p.lastErr,
		StaleRingsRemoved: p.staleRemoved,
	}
	for k, v := range p.captures {
		st.Captures[k] = v
	}
	p.mu.Unlock()
	for _, fi := range p.Index() {
		st.RingBytes += fi.Size
	}
	return st
}

// Index lists the ring's files, sorted by name.
func (p *Profiler) Index() []FileInfo {
	entries, err := os.ReadDir(p.ringDir)
	if err != nil {
		return nil
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, FileInfo{Name: e.Name(), Size: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// claimRingDir creates this process's ring directory, bumping the seq
// suffix past any the pid already owns (several profilers in one
// process, or pid reuse against a live ring).
func claimRingDir(root string) (string, error) {
	for seq := 1; ; seq++ {
		dir := filepath.Join(root, fmt.Sprintf("%s-%d-%d", ringStem, os.Getpid(), seq))
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !errors.Is(err, os.ErrExist) {
			return "", fmt.Errorf("profile: %w", err)
		}
	}
}
