package gmdj

import (
	"time"

	"github.com/olaplab/gmdj/internal/engine"
)

// Memory-adaptive execution. WithMemoryLimit bounds the bytes of
// tracked operator state (GMDJ base-side hash state, materialized
// subquery sources) across all concurrent queries on the DB. Under the
// limit, the engine degrades instead of failing:
//
//   - A GMDJ node whose state does not fit its reservation partitions
//     its base state by hash prefix and spills cold partitions to temp
//     files, re-probing each spilled partition with one extra detail
//     scan (the paper's one-scan guarantee relaxes to 1+k scans;
//     EXPLAIN ANALYZE reports the spill counters honestly).
//   - A query that cannot be admitted to the pool queues until capacity
//     frees, and is shed with ErrAdmissionTimeout as a last resort.
//
// Spill files live in a per-DB scratch directory that is janitored on
// Open (stale leftovers from crashed runs are removed) and deleted on
// Close, when a query finishes, or when it is canceled.
//
// The GMDJ_MEM environment variable supplies defaults for all three
// knobs; see Open for its format and the precedence.

// WithMemoryLimit bounds tracked operator state across all concurrent
// queries to maxBytes. 0 is not set: GMDJ_MEM's limit= applies, else
// memory is untracked and unlimited (the default); a negative value
// leaves memory untracked whatever the environment says. Spilling to
// the default scratch directory is enabled; combine with WithSpillDir
// to move or disable it.
func WithMemoryLimit(maxBytes int64) Option {
	return func(c *engine.Config) {
		if maxBytes != 0 {
			c.MemoryLimit = maxBytes
		}
	}
}

// WithSpillDir sets the scratch root under which the DB's spill
// directory is created. The empty string disables spilling entirely:
// memory exhaustion then aborts the query with ErrMemBudget instead of
// degrading to disk (the "kill" regime).
func WithSpillDir(dir string) Option {
	return func(c *engine.Config) { c.SpillDir = dir }
}

// WithAdmissionTimeout bounds how long a query may queue for pool
// memory before being shed with ErrAdmissionTimeout. d <= 0 is not
// set: GMDJ_MEM's admission= applies, else the 10s default. Only
// meaningful together with a memory limit.
func WithAdmissionTimeout(d time.Duration) Option {
	return func(c *engine.Config) {
		if d > 0 {
			c.AdmissionTimeout = d
		}
	}
}

// MemStats is a point-in-time snapshot of the DB's memory posture.
type MemStats struct {
	// Enabled reports whether a memory limit installed a pool; every other field is zero when false.
	Enabled bool
	// Capacity and InUse are the pool bounds, in bytes.
	Capacity, InUse int64
	// Queued is the number of queries currently waiting for admission;
	// Admitted and TimedOut count queries granted and shed so far.
	Queued             int
	Admitted, TimedOut int64
	// SpillEnabled reports whether exhaustion degrades to disk;
	// SpillDir is the DB's scratch directory.
	SpillEnabled bool
	SpillDir     string
	// SpillLiveFiles, SpillWrites, SpillReads, SpillBytesWritten, and
	// SpillBytesRead describe scratch-store traffic.
	SpillLiveFiles                    int
	SpillWrites, SpillReads           int64
	SpillBytesWritten, SpillBytesRead int64
}

// MemStats snapshots the memory pool and spill store.
func (db *DB) MemStats() MemStats {
	ms := db.eng.MemStatus()
	return MemStats{
		Enabled:           ms.Enabled,
		Capacity:          ms.Pool.Capacity,
		InUse:             ms.Pool.InUse,
		Queued:            ms.Pool.Queued,
		Admitted:          ms.Pool.Admitted,
		TimedOut:          ms.Pool.TimedOut,
		SpillEnabled:      ms.SpillEnabled,
		SpillDir:          ms.Spill.Dir,
		SpillLiveFiles:    ms.Spill.LiveFiles,
		SpillWrites:       ms.Spill.Writes,
		SpillReads:        ms.Spill.Reads,
		SpillBytesWritten: ms.Spill.BytesWritten,
		SpillBytesRead:    ms.Spill.BytesRead,
	}
}

// MemPressure reports the memory pool's in-use fraction in [0, 1]
// (0 when no pool is configured) — the signal behind the flight
// recorder's mem_pressure trigger.
func (db *DB) MemPressure() float64 {
	return db.eng.MemStatus().Pool.Utilization()
}

// Close commits to the data directory whatever was written since the
// last checkpoint (returning the error when that fails; see
// WithDataDir), releases the DB's scratch spill directory and shuts
// the memory-admission queue: queries still queued for pool
// capacity are shed promptly with an error matching ErrClosed rather
// than deadlocking or waiting out their admission deadlines. The DB
// remains usable afterwards — purely in-memory and unaccounted
// (spilling and admission control are disabled once closed). Safe to
// call more than once, concurrently with queued queries, and a no-op
// for databases that never enabled a memory limit.
func (db *DB) Close() error {
	return db.eng.Close()
}
