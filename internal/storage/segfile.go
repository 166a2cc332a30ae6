package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// segFormatVersion versions the segment file layout.
const segFormatVersion = 1

// A segment file is a sequence of GSPL frames (the spill store's
// checksummed envelope, see spill.AppendFrame):
//
//	frame 0      header: format version, table name, row count, schema
//	frame 1..N   one column payload per schema column (encoding.go)
//
// Zone maps are not persisted — they are derived data, built from the
// recovered rows when a scan asks (Table.Zones) — so corruption cannot
// desynchronize statistics from cells.

// encodeSegment serializes s into segment-file bytes.
func encodeSegment(s *Segment) []byte {
	header := binary.AppendUvarint(nil, segFormatVersion)
	header = value.AppendString(header, s.Table)
	header = binary.AppendUvarint(header, uint64(s.Rows))
	header = s.Schema.AppendBinary(header)
	buf := spill.AppendFrame(nil, header)
	for _, col := range s.Cols {
		buf = spill.AppendFrame(buf, encodeColumn(col))
	}
	return buf
}

// decodeSegment parses segment-file bytes, verifying every frame
// checksum and cross-checking the header's row count against each
// column. Zone maps are not built: recovery only wants the rows.
func decodeSegment(buf []byte) (*Segment, error) {
	header, n, err := spill.DecodeFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("header frame: %w", err)
	}
	r := value.NewReader(header)
	version := r.Uvarint()
	if r.Err() == nil && version != segFormatVersion {
		return nil, fmt.Errorf("segment format version %d (want %d)", version, segFormatVersion)
	}
	table := r.Str()
	rows := r.Uvarint()
	schema := relation.ReadSchema(r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("segment header: %w", err)
	}
	s := &Segment{Table: table, Schema: schema, Rows: int(rows), Cols: make([]*relation.ColVec, schema.Len())}
	rest := buf[n:]
	for c := range s.Cols {
		payload, fn, err := spill.DecodeFrame(rest)
		if err != nil {
			return nil, fmt.Errorf("column %d frame: %w", c, err)
		}
		col, err := decodeColumn(payload)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", c, err)
		}
		if col.Len() != s.Rows {
			return nil, fmt.Errorf("column %d has %d rows, header says %d", c, col.Len(), s.Rows)
		}
		s.Cols[c] = col
		rest = rest[fn:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("segment file has %d trailing bytes", len(rest))
	}
	return s, nil
}

// writeDurableFile persists data at name in the store's directory
// with crash-safe discipline — write to a temp file, fsync it, rename
// into place, fsync the directory — enacting any disk fault configured
// at site (storage.write or storage.manifest):
//
//	enospc      fail as if the device were full; nothing durable
//	shortwrite  a partial temp file, then failure (the partial file
//	            is removed, as a real failed write's would be)
//	corrupt     flip a payload byte but report success — latent
//	            corruption only recovery's checksums notice
//	torn        persist only a prefix at the FINAL name and report
//	            success — a torn write behind a lying fsync
func (ds *DiskStore) writeDurableFile(name string, data []byte, site string) error {
	dir, faults := ds.dir, ds.faults
	if err := faults.Fire(site, nil); err != nil {
		return fmt.Errorf("storage: %s: %w", site, err)
	}
	path := filepath.Join(dir, name)
	switch faults.Disk(site) {
	case govern.DiskENOSPC:
		return fmt.Errorf("storage: writing %s: %w", path, syscall.ENOSPC)
	case govern.DiskShortWrite:
		tmp := path + ".tmp"
		_ = os.WriteFile(tmp, data[:len(data)/2], 0o644)
		os.Remove(tmp)
		return fmt.Errorf("storage: writing %s: short write (%d of %d bytes)", path, len(data)/2, len(data))
	case govern.DiskCorrupt:
		if len(data) > spill.FrameOverhead {
			corrupted := make([]byte, len(data))
			copy(corrupted, data)
			corrupted[spill.FrameOverhead] ^= 0xFF
			data = corrupted
		}
	case govern.DiskTorn:
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			return fmt.Errorf("storage: writing %s: %v", path, err)
		}
		ds.tornWrites.Add(1)
		return nil
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: creating %s: %v", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: writing %s: %v", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("storage: syncing %s: %v", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: closing %s: %v", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: renaming %s: %v", tmp, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a completed rename is durable. Errors
// are swallowed: not every filesystem supports directory fsync, and
// the write itself already succeeded.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	d.Close()
}
