package govern

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// EnvFaults is the environment variable the engine resolves at
// construction (see engine.New; olapd parses it again for the serve.*
// sites): a fault spec of the form "site=action[,site=action...]"
// where action is "panic", "error", or "delay:<duration>" (Go duration
// syntax). Example:
//
//	GMDJ_FAULTS="gmdj.worker=panic,exec.project=delay:50ms"
//
// Known sites are named at the point of injection; the current set is
// exec.scan, exec.restrict, exec.project, exec.distinct, exec.join,
// exec.groupby, exec.sort, exec.setop, exec.subquery, exec.number,
// gmdj.compile, gmdj.pass, gmdj.worker, gmdj.emit, spill.write, spill.read, and
// the serving-layer sites serve.accept (request admission), serve.write
// (response serialization), and serve.cancel (drain/abort handling).
//
// Any action may carry an "@N" suffix ("serve.accept=error@25"): the
// fault then fires deterministically on every Nth arrival at the site
// (the Nth, 2Nth, ... calls) instead of every call, which is what a
// chaos scenario wants — a server where every accept fails measures
// nothing. Without the suffix N is 1 and the historical every-call
// behavior is unchanged.
//
// The spill sites and the durable-storage sites storage.write
// (segment persistence), storage.read (segment re-read/recovery), and
// storage.manifest (manifest commit) additionally accept the
// disk-fault actions "enospc" (the write fails as if the device were
// full), "shortwrite" (the write is truncated mid-frame), "corrupt" (a
// byte of the frame is flipped, tripping the checksum — on read sites
// this corrupts the re-read, modeling at-rest corruption), and "torn"
// (the write is truncated but REPORTED as durable, modeling a torn
// write behind a lying fsync — recovery must detect and quarantine
// it). Disk actions are interpreted by the spill and storage stores
// via Disk; Fire treats them as no-ops so they are inert at non-disk
// sites.
const EnvFaults = "GMDJ_FAULTS"

// ErrInjected is the error returned by an "error" fault; injected
// failures are distinguishable from organic ones in test assertions.
var ErrInjected = errors.New("injected fault")

// faultKind enumerates injectable behaviors.
type faultKind uint8

const (
	faultError faultKind = iota
	faultPanic
	faultDelay
	faultENOSPC
	faultShortWrite
	faultCorrupt
	faultTorn
)

// DiskFault classifies the disk-level fault configured at a spill
// site; the spill store interprets it at the byte level (Fire cannot —
// it does not own the file descriptor).
type DiskFault uint8

const (
	// DiskNone: no disk fault at this site.
	DiskNone DiskFault = iota
	// DiskENOSPC: fail the write as if the device were full.
	DiskENOSPC
	// DiskShortWrite: truncate the write mid-frame.
	DiskShortWrite
	// DiskCorrupt: flip a byte of the frame so the checksum trips.
	DiskCorrupt
	// DiskTorn: truncate the write but report it as durably completed —
	// a torn write behind a lying fsync. Only recovery notices.
	DiskTorn
)

type fault struct {
	kind  faultKind
	delay time.Duration
	// every fires the fault on every every-th arrival only (1 = every
	// call); hits counts arrivals at the site across goroutines.
	every int64
	hits  *atomic.Int64
}

// due reports whether this arrival at the site should fault.
func (f fault) due() bool {
	if f.every <= 1 {
		return true
	}
	return f.hits.Add(1)%f.every == 0
}

// Injector triggers deterministic faults at named operator sites. A
// nil Injector is inert; Fire on it costs one nil check, so production
// paths carry no overhead when no faults are configured. The fault
// table is immutable after construction and Fire is safe for
// concurrent calls.
type Injector struct {
	faults   map[string]fault
	injected atomic.Int64 // faults that fired
}

// Injected reports how many faults this injector has fired (0 for a
// nil Injector).
func (in *Injector) Injected() int64 {
	if in == nil {
		return 0
	}
	return in.injected.Load()
}

// ParseFaults builds an Injector from a spec (see EnvFaults). An empty
// spec yields a nil Injector.
func ParseFaults(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := &Injector{faults: map[string]fault{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, action, ok := strings.Cut(part, "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("govern: fault spec %q is not site=action", part)
		}
		every := int64(1)
		if base, rate, hasRate := strings.Cut(action, "@"); hasRate {
			n, err := strconv.ParseInt(rate, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("govern: fault spec %q: bad rate %q (want @N, N >= 1)", part, rate)
			}
			action, every = base, n
		}
		f := fault{every: every, hits: new(atomic.Int64)}
		switch {
		case action == "panic":
			f.kind = faultPanic
		case action == "error":
			f.kind = faultError
		case strings.HasPrefix(action, "delay:"):
			d, err := time.ParseDuration(strings.TrimPrefix(action, "delay:"))
			if err != nil {
				return nil, fmt.Errorf("govern: fault spec %q: %w", part, err)
			}
			f.kind, f.delay = faultDelay, d
		case action == "enospc":
			f.kind = faultENOSPC
		case action == "shortwrite":
			f.kind = faultShortWrite
		case action == "corrupt":
			f.kind = faultCorrupt
		case action == "torn":
			f.kind = faultTorn
		default:
			return nil, fmt.Errorf("govern: fault spec %q: unknown action %q", part, action)
		}
		in.faults[site] = f
	}
	if len(in.faults) == 0 {
		return nil, nil
	}
	return in, nil
}

// NewInjector builds an Injector programmatically (tests): each site
// maps to "panic", "error", or "delay:<duration>". It panics on a
// malformed action — injector construction is setup code.
func NewInjector(sites map[string]string) *Injector {
	parts := make([]string, 0, len(sites))
	for site, action := range sites {
		parts = append(parts, site+"="+action)
	}
	in, err := ParseFaults(strings.Join(parts, ","))
	if err != nil {
		panic(err)
	}
	return in
}

// Fire triggers the fault configured at site, if any: it returns an
// error wrapping ErrInjected, panics, or sleeps for the configured
// delay (respecting ctx so delayed sites still cancel promptly).
func (in *Injector) Fire(site string, g *Governor) error {
	if in == nil {
		return nil
	}
	f, ok := in.faults[site]
	if !ok {
		return nil
	}
	switch f.kind {
	case faultENOSPC, faultShortWrite, faultCorrupt, faultTorn:
		// Disk faults are byte-level: the spill and storage stores ask
		// for them via Disk and enact them against their own file I/O.
		// Inert here so a disk action at a non-disk site does nothing —
		// and the rate counter is left to Disk.
		return nil
	}
	if !f.due() {
		return nil
	}
	in.injected.Add(1)
	switch f.kind {
	case faultPanic:
		panic(fmt.Sprintf("govern: injected panic at %s", site))
	case faultDelay:
		t := time.NewTimer(f.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-g.Context().Done():
			return g.Check()
		}
	default:
		return fmt.Errorf("%w at %s", ErrInjected, site)
	}
}

// Disk reports the disk-level fault configured at site (DiskNone when
// none, or when the site's action is not a disk action). The spill
// store calls this before each file operation and enacts the fault at
// the byte level. Safe on a nil Injector.
func (in *Injector) Disk(site string) DiskFault {
	if in == nil {
		return DiskNone
	}
	f := in.faults[site]
	var kind DiskFault
	switch f.kind {
	case faultENOSPC:
		kind = DiskENOSPC
	case faultShortWrite:
		kind = DiskShortWrite
	case faultCorrupt:
		kind = DiskCorrupt
	case faultTorn:
		kind = DiskTorn
	default:
		return DiskNone
	}
	if !f.due() {
		return DiskNone
	}
	in.injected.Add(1)
	return kind
}
