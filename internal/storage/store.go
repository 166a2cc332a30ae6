package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
)

// ErrSegmentCorrupt classifies durable-storage corruption: a segment
// that failed checksum or structural verification, or a query touching
// a table quarantined by recovery. Match it with errors.Is. Unlike
// ErrSpillIO it is not retryable — the bytes on disk are wrong and
// stay wrong until the table is rewritten.
var ErrSegmentCorrupt = errors.New("segment corrupt")

// Fault-injection sites interpreted by the durable store (see
// govern.EnvFaults for the disk actions they accept, including "torn").
const (
	// SiteWrite covers segment-file persistence.
	SiteWrite = "storage.write"
	// SiteRead covers segment re-reads during recovery.
	SiteRead = "storage.read"
	// SiteManifest covers manifest commit and recovery-time manifest
	// reads.
	SiteManifest = "storage.manifest"
)

// tableState tracks what the last committed manifest holds for one
// table, so checkpoints skip tables whose id+version are unchanged,
// write only the rows past entry.rows() of a table that grew, and
// carry quarantined tables' old entries forward instead of
// overwriting the only copy of their (corrupt but maybe repairable)
// bytes with an empty relation.
type tableState struct {
	entry   manifestEntry
	id      uint64
	version uint64
	carry   bool // quarantined: never rewrite, reference the old files
}

// DiskStore is the durable tier: a directory of immutable segment
// files — each table a list of them over consecutive row ranges —
// committed by generation-numbered manifests. One store owns one
// directory; Checkpoint and Recover serialize on an internal mutex.
type DiskStore struct {
	dir    string
	faults *govern.Injector

	mu        sync.Mutex
	gen       uint64
	state     map[string]*tableState
	prevFiles map[string]bool // files of the previous generation (GC keep-set)

	segsWritten   atomic.Int64
	segsRecovered atomic.Int64
	quarantined   atomic.Int64
	checkpoints   atomic.Int64
	recoveries    atomic.Int64
	skippedMans   atomic.Int64
	bytesWritten  atomic.Int64
	bytesRead     atomic.Int64
	tornWrites    atomic.Int64
}

// QuarantinedTable describes one table recovery had to quarantine.
type QuarantinedTable struct {
	Table  string `json:"table"`
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// RecoveryReport summarizes what Recover found.
type RecoveryReport struct {
	// Generation is the recovered manifest generation (0: fresh store).
	Generation uint64 `json:"generation"`
	// Tables lists tables recovered intact, sorted.
	Tables []string `json:"tables"`
	// Quarantined lists tables whose segments failed verification.
	Quarantined []QuarantinedTable `json:"quarantined,omitempty"`
	// SkippedManifests counts newer manifests that failed verification
	// before a valid generation was found (torn manifest commits).
	SkippedManifests int `json:"skipped_manifests"`
}

// DiskStoreStats is a point-in-time snapshot of store activity, the
// source of the olap_storage_* metric families.
type DiskStoreStats struct {
	Dir               string `json:"dir"`
	Generation        uint64 `json:"generation"`
	Tables            int    `json:"tables"`
	QuarantinedTables int    `json:"quarantined_tables"`
	SegmentsWritten   int64  `json:"segments_written"`
	SegmentsRecovered int64  `json:"segments_recovered"`
	Quarantined       int64  `json:"quarantined_total"`
	Checkpoints       int64  `json:"checkpoints"`
	Recoveries        int64  `json:"recoveries"`
	SkippedManifests  int64  `json:"skipped_manifests"`
	BytesWritten      int64  `json:"bytes_written"`
	BytesRead         int64  `json:"bytes_read"`
	TornWrites        int64  `json:"torn_writes"` // injected "torn" disk faults
}

// SegmentInfo describes one table's durable state (olapql \segments):
// its segment files in row order and the rows they hold in total.
type SegmentInfo struct {
	Table       string   `json:"table"`
	Files       []string `json:"files"`
	Rows        uint64   `json:"rows"`
	Quarantined bool     `json:"quarantined"`
	Reason      string   `json:"reason,omitempty"`
}

// OpenDiskStore opens (creating if needed) the durable store rooted at
// dir. faults may be nil. Call Recover next to load the latest
// committed generation.
func OpenDiskStore(dir string, faults *govern.Injector) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data dir %s: %v", dir, err)
	}
	return &DiskStore{dir: dir, faults: faults, state: map[string]*tableState{}, prevFiles: map[string]bool{}}, nil
}

// Dir returns the store's directory.
func (ds *DiskStore) Dir() string { return ds.dir }

// Generation returns the last committed generation (0 before any
// checkpoint on a fresh store).
func (ds *DiskStore) Generation() uint64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.gen
}

// SetFaults swaps the fault injector (the engine rebuilds its injector
// when tests reconfigure GMDJ_FAULTS mid-process).
func (ds *DiskStore) SetFaults(faults *govern.Injector) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	ds.faults = faults
}

// Recover replays the newest valid manifest into cat: every entry's
// segment files are read back in order, each checksum-verified and
// checked against the entry, and their rows concatenated into one
// registered table; a file that fails verification quarantines its
// table (the table exists, queries against it return
// ErrSegmentCorrupt, and the next checkpoint carries all its old files
// forward) rather than failing recovery. Newer manifests that fail
// verification are skipped — recovery walks back generation by
// generation until one commits.
func (ds *DiskStore) Recover(cat *Catalog) (*RecoveryReport, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	report := &RecoveryReport{}
	names, err := ds.manifestNamesDesc()
	if err != nil {
		return nil, err
	}
	var m *manifest
	for _, name := range names {
		cand, err := ds.readManifest(name)
		if err != nil {
			report.SkippedManifests++
			ds.skippedMans.Add(1)
			continue
		}
		m = cand
		break
	}
	ds.recoveries.Add(1)
	if m == nil {
		return report, nil // fresh store (or nothing valid: start empty)
	}
	ds.gen = m.Generation
	report.Generation = m.Generation
	ds.state = map[string]*tableState{}
	ds.prevFiles = map[string]bool{}
	for _, e := range m.Entries {
		for _, f := range e.Files {
			ds.prevFiles[f.File] = true
		}
		t := NewTable(e.Table, relation.New(e.Schema.Clone()))
		rows, file, err := ds.readEntry(e)
		if err != nil {
			t.Quarantine(err.Error())
			report.Quarantined = append(report.Quarantined, QuarantinedTable{Table: e.Table, File: file, Reason: err.Error()})
			ds.quarantined.Add(1)
		} else {
			t.Rel.Rows = rows
			report.Tables = append(report.Tables, e.Table)
		}
		cat.Register(t)
		ds.state[e.Table] = &tableState{entry: e, id: t.ID(), version: t.Version(), carry: err != nil}
	}
	sort.Strings(report.Tables)
	return report, nil
}

// readEntry reads one table's segment files back in order, verifying
// each against the entry, and returns their rows concatenated — or the
// first file that failed and why.
func (ds *DiskStore) readEntry(e manifestEntry) (rows []relation.Tuple, file string, err error) {
	for _, f := range e.Files {
		var seg *Segment
		seg, err = ds.readSegmentFile(f.File)
		if err == nil && (seg.Table != e.Table || uint64(seg.Rows) != f.Rows || !seg.Schema.Equal(e.Schema)) {
			err = fmt.Errorf("%w: %s: segment does not match manifest entry (table %q rows %d)", ErrSegmentCorrupt, f.File, seg.Table, seg.Rows)
		}
		if err != nil {
			return nil, f.File, err
		}
		rows = seg.appendRows(rows)
		ds.segsRecovered.Add(1)
	}
	return rows, "", nil
}

// Checkpoint persists what changed in cat since the last checkpoint (or
// recovery) and commits the result as a new generation. A table that
// grew gets one new segment file holding its new rows — and, by the
// logarithmic method, the rows of every newest committed file smaller
// than twice what is being written, re-packed from memory, so a table
// keeps O(log rows) files and each row is rewritten O(log rows) times;
// the files before those are shared with the previous generation. A
// table whose version moved without new rows (an index change) writes
// nothing, a re-created one (another id) is written from row 0,
// unchanged tables keep their files, and quarantined tables carry
// their old entries forward untouched. On any error the previous
// generation remains the committed one — partial segment files are
// unreachable garbage the next successful checkpoint's GC removes.
func (ds *DiskStore) Checkpoint(cat *Catalog) (uint64, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	gen := ds.gen + 1
	var entries []manifestEntry
	newState := map[string]*tableState{}
	dirty := false
	for idx, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			continue // dropped between Names and Table; the drop marks dirty below
		}
		st := ds.state[name]
		if st != nil && st.carry {
			if _, quarantined := t.QuarantineReason(); quarantined {
				entries = append(entries, st.entry)
				newState[name] = st
				continue
			}
			// The table was re-created over its quarantine: fall through
			// and rewrite it.
		}
		// The version before the rows: a writer appends, then bumps, so an
		// insert racing this read leaves a version the recorded one does
		// not match, and the next checkpoint looks again.
		version, rows := t.Version(), t.Rel.Rows
		var e manifestEntry
		if st != nil && !st.carry && st.id == t.ID() {
			if st.version == version {
				entries = append(entries, st.entry)
				newState[name] = st
				continue
			}
			if st.entry.rows() <= uint64(len(rows)) {
				e = st.entry // its files still hold the table's first rows
			}
		}
		if tail := len(rows) - int(e.rows()); tail > 0 || len(e.Files) == 0 {
			keep := len(e.Files)
			for keep > 0 && e.Files[keep-1].Rows < 2*uint64(tail) {
				keep--
				tail += int(e.Files[keep].Rows)
			}
			seg := BuildSegment(name, &relation.Relation{Schema: t.Rel.Schema, Rows: rows[len(rows)-tail:]})
			data := encodeSegment(seg)
			file := fmt.Sprintf("%s-%d-%d.seg", sanitizeFileStem(name), gen, idx)
			if err := ds.writeDurableFile(file, data, SiteWrite); err != nil {
				return ds.gen, err
			}
			ds.segsWritten.Add(1)
			ds.bytesWritten.Add(int64(len(data)))
			// Capacity clipped, so the append copies: the committed state's
			// list must survive a failed commit.
			files := append(e.Files[:keep:keep], segmentFile{File: file, Rows: uint64(tail)})
			e = manifestEntry{Table: name, Files: files, Schema: seg.Schema}
			dirty = true
		}
		entries = append(entries, e)
		newState[name] = &tableState{entry: e, id: t.ID(), version: version}
	}
	for name := range ds.state {
		if _, ok := newState[name]; !ok {
			dirty = true // dropped table
		}
	}
	if !dirty && ds.gen > 0 {
		ds.state = newState // same files; versions that moved without rows are now seen
		return ds.gen, nil
	}
	m := &manifest{Generation: gen, Entries: entries}
	if err := ds.writeDurableFile(manifestName(gen), encodeManifest(m), SiteManifest); err != nil {
		return ds.gen, err
	}
	prev := ds.gen
	prevFiles := map[string]bool{}
	for _, st := range ds.state {
		for _, f := range st.entry.Files {
			prevFiles[f.File] = true
		}
	}
	ds.gen = gen
	ds.state = newState
	ds.checkpoints.Add(1)
	ds.gcLocked(prev, prevFiles)
	ds.prevFiles = prevFiles
	return gen, nil
}

// gcLocked removes manifests older than the previous generation and
// segment files referenced by neither the new nor the previous
// generation. Conservative: the previous generation stays fully
// recoverable in case the latest manifest is later found torn.
func (ds *DiskStore) gcLocked(prevGen uint64, prevFiles map[string]bool) {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return
	}
	keep := map[string]bool{}
	for _, st := range ds.state {
		for _, f := range st.entry.Files {
			keep[f.File] = true
		}
	}
	for f := range prevFiles {
		keep[f] = true
	}
	for _, e := range entries {
		name := e.Name()
		if gen, ok := parseManifestName(name); ok {
			if gen < prevGen {
				os.Remove(filepath.Join(ds.dir, name))
			}
			continue
		}
		if strings.HasSuffix(name, ".seg") && !keep[name] {
			os.Remove(filepath.Join(ds.dir, name))
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(ds.dir, name))
		}
	}
}

// Segments reports the durable state of every table in the committed
// generation, sorted by table name.
func (ds *DiskStore) Segments(cat *Catalog) []SegmentInfo {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	out := make([]SegmentInfo, 0, len(ds.state))
	for name, st := range ds.state {
		info := SegmentInfo{Table: name, Rows: st.entry.rows()}
		for _, f := range st.entry.Files {
			info.Files = append(info.Files, f.File)
		}
		if t, err := cat.Table(name); err == nil {
			if reason, ok := t.QuarantineReason(); ok {
				info.Quarantined = true
				info.Reason = reason
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Table < out[j].Table })
	return out
}

// Stats snapshots store activity.
func (ds *DiskStore) Stats(cat *Catalog) DiskStoreStats {
	ds.mu.Lock()
	gen := ds.gen
	tables := len(ds.state)
	ds.mu.Unlock()
	quarantined := 0
	if cat != nil {
		for _, name := range cat.Names() {
			if t, err := cat.Table(name); err == nil {
				if _, ok := t.QuarantineReason(); ok {
					quarantined++
				}
			}
		}
	}
	return DiskStoreStats{
		Dir:               ds.dir,
		Generation:        gen,
		Tables:            tables,
		QuarantinedTables: quarantined,
		SegmentsWritten:   ds.segsWritten.Load(),
		SegmentsRecovered: ds.segsRecovered.Load(),
		Quarantined:       ds.quarantined.Load(),
		Checkpoints:       ds.checkpoints.Load(),
		Recoveries:        ds.recoveries.Load(),
		SkippedManifests:  ds.skippedMans.Load(),
		TornWrites:        ds.tornWrites.Load(),
		BytesWritten:      ds.bytesWritten.Load(),
		BytesRead:         ds.bytesRead.Load(),
	}
}

// manifestNamesDesc lists manifest filenames, newest generation first.
func (ds *DiskStore) manifestNamesDesc() ([]string, error) {
	entries, err := os.ReadDir(ds.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: reading data dir %s: %v", ds.dir, err)
	}
	type cand struct {
		name string
		gen  uint64
	}
	var cands []cand
	for _, e := range entries {
		if gen, ok := parseManifestName(e.Name()); ok {
			cands = append(cands, cand{e.Name(), gen})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen > cands[j].gen })
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	return names, nil
}

// readManifest loads and verifies one manifest file, enacting
// recovery-time faults at storage.manifest.
func (ds *DiskStore) readManifest(name string) (*manifest, error) {
	if err := ds.faults.Fire(SiteManifest, nil); err != nil {
		return nil, fmt.Errorf("storage: %s: %w", SiteManifest, err)
	}
	path := filepath.Join(ds.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading %s: %v", path, err)
	}
	if ds.faults.Disk(SiteManifest) == govern.DiskCorrupt && len(data) > spill.FrameOverhead {
		data = append([]byte(nil), data...)
		data[spill.FrameOverhead] ^= 0xFF
	}
	ds.bytesRead.Add(int64(len(data)))
	m, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", name, err)
	}
	if gen, ok := parseManifestName(name); !ok || gen != m.Generation {
		return nil, fmt.Errorf("storage: %s: generation %d does not match filename", name, m.Generation)
	}
	return m, nil
}

// readSegmentFile loads and verifies one segment file, enacting
// recovery-time faults at storage.read. Every failure wraps
// ErrSegmentCorrupt.
func (ds *DiskStore) readSegmentFile(name string) (*Segment, error) {
	if err := ds.faults.Fire(SiteRead, nil); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, name, err)
	}
	path := filepath.Join(ds.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: reading %s: %v", ErrSegmentCorrupt, name, err)
	}
	if ds.faults.Disk(SiteRead) == govern.DiskCorrupt && len(data) > spill.FrameOverhead {
		data = append([]byte(nil), data...)
		data[spill.FrameOverhead] ^= 0xFF
	}
	ds.bytesRead.Add(int64(len(data)))
	seg, err := decodeSegment(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrSegmentCorrupt, name, err)
	}
	return seg, nil
}

// sanitizeFileStem maps a table name onto filename-safe bytes;
// uniqueness comes from the generation+index suffix, so collisions
// here are harmless.
func sanitizeFileStem(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "table"
	}
	return b.String()
}
