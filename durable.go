package gmdj

import (
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/storage"
)

// Durable storage. A DB is in-memory by default; WithDataDir (or
// SetDataDir, or the GMDJ_DATA_DIR default described on Open) attaches
// a directory of immutable columnar segment files committed by
// generation-numbered manifests. A table is a list of such files over
// consecutive row ranges, so a checkpoint writes the rows appended
// since the last one rather than the table. Checkpointing is
// transparent: the first query after any write, and Close, flush what
// was written and commit a new generation, so a crash at any instant
// loses at most the writes since the last completed query boundary.
// Opening a directory recovers the newest committed generation; a
// segment whose bytes fail checksum or structural verification
// quarantines its table — the rest of the catalog keeps serving, and
// queries touching the quarantined table return an error matching
// ErrSegmentCorrupt until the table is re-created.

// WithDataDir enables durable storage rooted at dir, recovering
// whatever a previous run committed there; the empty string keeps the
// DB in memory even under GMDJ_DATA_DIR. Intended for setup code: Open
// panics when the directory cannot be opened at all (use SetDataDir to
// handle that error; corrupt data never panics — it quarantines).
func WithDataDir(dir string) Option {
	return func(c *engine.Config) { c.DataDir = dir }
}

// QuarantinedSegment describes one table recovery had to quarantine:
// its segment file failed verification, so the table answers queries
// with ErrSegmentCorrupt instead of silently serving wrong bytes.
type QuarantinedSegment struct {
	// Table is the quarantined table's name.
	Table string
	// File is the segment file that failed verification.
	File string
	// Reason is the verification failure, human-readable.
	Reason string
}

// RecoveryReport summarizes what opening a data directory found.
type RecoveryReport struct {
	// Generation is the recovered manifest generation (0 for a fresh
	// directory).
	Generation uint64
	// Tables lists the tables recovered intact, sorted.
	Tables []string
	// Quarantined lists the tables whose segments failed verification.
	Quarantined []QuarantinedSegment
	// SkippedManifests counts newer manifests skipped because they
	// failed verification (torn commits) before a valid generation was
	// found.
	SkippedManifests int
}

func toRecoveryReport(r *storage.RecoveryReport) *RecoveryReport {
	if r == nil {
		return nil
	}
	out := &RecoveryReport{
		Generation:       r.Generation,
		Tables:           append([]string(nil), r.Tables...),
		SkippedManifests: r.SkippedManifests,
	}
	for _, q := range r.Quarantined {
		out.Quarantined = append(out.Quarantined, QuarantinedSegment{Table: q.Table, File: q.File, Reason: q.Reason})
	}
	return out
}

// SetDataDir enables durable storage rooted at dir (creating it if
// needed) and recovers the newest committed generation into the
// catalog, returning what it found. Corrupt segments quarantine their
// tables rather than failing the open. The empty string disables
// persistence. Not safe to call concurrently with running queries.
func (db *DB) SetDataDir(dir string) (*RecoveryReport, error) {
	rep, err := db.eng.SetDataDir(dir)
	if err != nil {
		return nil, err
	}
	return toRecoveryReport(rep), nil
}

// DataDir returns the durable store's directory, or "" when the DB is
// purely in-memory.
func (db *DB) DataDir() string { return db.eng.DataDir() }

// Recovery returns the report from the last data-directory open (nil
// when persistence is off).
func (db *DB) Recovery() *RecoveryReport { return toRecoveryReport(db.eng.Recovery()) }

// Checkpoint persists the rows written since the last checkpoint and
// commits a new manifest generation, returning the committed
// generation number. Checkpoints also run transparently before the
// first query after any write and on Close; call this explicitly to
// bound data loss without issuing a query (olapql's \checkpoint).
// Errors when no data directory is configured.
func (db *DB) Checkpoint() (uint64, error) { return db.eng.Checkpoint() }

// SegmentInfo describes one table's durable state.
type SegmentInfo struct {
	// Table is the table name.
	Table string
	// Rows is the committed row count, over all the table's segment
	// files; Files is how many of those there are.
	Rows  uint64
	Files int
	// Quarantined marks a table whose segment failed verification;
	// Reason says why.
	Quarantined bool
	Reason      string
}

// Segments reports the durable state of every table in the committed
// generation, sorted by table name (nil when persistence is off).
func (db *DB) Segments() []SegmentInfo {
	ds := db.eng.DiskStore()
	if ds == nil {
		return nil
	}
	infos := ds.Segments(db.cat)
	out := make([]SegmentInfo, len(infos))
	for i, s := range infos {
		out[i] = SegmentInfo{Table: s.Table, Rows: s.Rows, Files: len(s.Files), Quarantined: s.Quarantined, Reason: s.Reason}
	}
	return out
}

// StorageStats is a point-in-time snapshot of durable-store activity,
// the source of the olap_storage_* metric families.
type StorageStats struct {
	// Enabled reports whether a data directory is configured; every
	// other field is zero when false.
	Enabled bool
	// Dir is the data directory; Generation the committed manifest
	// generation.
	Dir        string
	Generation uint64
	// Tables counts tables in the committed generation;
	// QuarantinedTables those currently quarantined.
	Tables, QuarantinedTables int
	// SegmentsWritten and SegmentsRecovered count segment files
	// persisted and read back intact; Quarantined counts quarantine
	// events.
	SegmentsWritten, SegmentsRecovered, Quarantined int64
	// Checkpoints and Recoveries count committed generations and
	// directory opens; SkippedManifests counts torn manifest commits
	// recovery had to walk past.
	Checkpoints, Recoveries, SkippedManifests int64
	// BytesWritten and BytesRead total durable I/O traffic.
	BytesWritten, BytesRead int64
}

// StorageStats snapshots the durable store's counters.
func (db *DB) StorageStats() StorageStats {
	ds := db.eng.DiskStore()
	if ds == nil {
		return StorageStats{}
	}
	s := ds.Stats(db.cat)
	return StorageStats{
		Enabled:           true,
		Dir:               s.Dir,
		Generation:        s.Generation,
		Tables:            s.Tables,
		QuarantinedTables: s.QuarantinedTables,
		SegmentsWritten:   s.SegmentsWritten,
		SegmentsRecovered: s.SegmentsRecovered,
		Quarantined:       s.Quarantined,
		Checkpoints:       s.Checkpoints,
		Recoveries:        s.Recoveries,
		SkippedManifests:  s.SkippedManifests,
		BytesWritten:      s.BytesWritten,
		BytesRead:         s.BytesRead,
	}
}
