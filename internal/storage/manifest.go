package storage

import (
	"encoding/binary"
	"fmt"
	"strings"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// The manifest is the commit record of the durable store: one GSPL
// frame naming the generation and, for every table, the segment files
// holding its rows, in row order. A checkpoint writes new segment files
// first, then commits them all at once by renaming MANIFEST-<gen> into
// place — a crash between the two leaves the previous generation
// intact, and a reader never sees a half-committed generation.
// Manifest filenames embed the generation as 16 hex digits so lexical
// order is numeric order.

// manifestFormatVersion versions the manifest payload layout. Version
// 1, which gave every table exactly one file, still decodes.
const manifestFormatVersion = 2

const manifestPrefix = "MANIFEST-"

// segmentFile names one immutable segment file and the rows it holds.
type segmentFile struct {
	File string
	Rows uint64
}

// manifestEntry records one table of a committed generation: Files
// hold consecutive row ranges of the table, first rows first, and is
// never empty. The schema is stored in the manifest too (not only in
// the segment files) so a table with a corrupt segment can still be
// quarantined with its proper schema.
type manifestEntry struct {
	Table  string
	Files  []segmentFile
	Schema *relation.Schema
}

// rows is the table's committed row count.
func (e manifestEntry) rows() (n uint64) {
	for _, f := range e.Files {
		n += f.Rows
	}
	return n
}

// manifest is one committed generation.
type manifest struct {
	Generation uint64
	Entries    []manifestEntry
}

// manifestName renders the filename for a generation.
func manifestName(gen uint64) string {
	return fmt.Sprintf("%s%016x", manifestPrefix, gen)
}

// parseManifestName extracts the generation from a manifest filename.
func parseManifestName(name string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, manifestPrefix)
	if !ok || len(rest) != 16 {
		return 0, false
	}
	var gen uint64
	if _, err := fmt.Sscanf(rest, "%016x", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// encodeManifest serializes m as one GSPL frame.
func encodeManifest(m *manifest) []byte {
	payload := binary.AppendUvarint(nil, manifestFormatVersion)
	payload = binary.AppendUvarint(payload, m.Generation)
	payload = binary.AppendUvarint(payload, uint64(len(m.Entries)))
	for _, e := range m.Entries {
		payload = value.AppendString(payload, e.Table)
		payload = binary.AppendUvarint(payload, uint64(len(e.Files)))
		for _, f := range e.Files {
			payload = value.AppendString(payload, f.File)
			payload = binary.AppendUvarint(payload, f.Rows)
		}
		payload = e.Schema.AppendBinary(payload)
	}
	return spill.AppendFrame(nil, payload)
}

// decodeManifest parses manifest-file bytes, verifying the frame
// checksum and the payload structure.
func decodeManifest(buf []byte) (*manifest, error) {
	payload, n, err := spill.DecodeFrame(buf)
	if err != nil {
		return nil, fmt.Errorf("manifest frame: %w", err)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("manifest has %d trailing bytes", len(buf)-n)
	}
	r := value.NewReader(payload)
	version := r.Uvarint()
	if r.Err() == nil && version != 1 && version != manifestFormatVersion {
		return nil, fmt.Errorf("manifest format version %d (want 1 or %d)", version, manifestFormatVersion)
	}
	m := &manifest{Generation: r.Uvarint()}
	nentries := r.Count()
	for i := 0; i < nentries && r.Err() == nil; i++ {
		e := manifestEntry{Table: r.Str()}
		nfiles := 1 // version 1 wrote one file per table and no count
		if version != 1 {
			nfiles = r.Count()
		}
		for j := 0; j < nfiles && r.Err() == nil; j++ {
			e.Files = append(e.Files, segmentFile{File: r.Str(), Rows: r.Uvarint()})
		}
		e.Schema = relation.ReadSchema(r)
		if r.Err() != nil {
			break
		}
		malformed := e.Table == "" || len(e.Files) == 0
		for _, f := range e.Files {
			malformed = malformed || f.File == "" || strings.ContainsAny(f.File, "/\\")
		}
		if malformed {
			return nil, fmt.Errorf("manifest entry %d is malformed (table %q, files %v)", i, e.Table, e.Files)
		}
		m.Entries = append(m.Entries, e)
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("manifest payload: %w", err)
	}
	return m, nil
}
