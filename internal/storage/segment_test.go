package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// cellIdentical is bit-level equality: stricter than value.Equal so
// round-trip tests catch -0.0 collapsing to +0.0 or NaN payloads being
// rewritten.
func cellIdentical(a, b value.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case value.KindNull:
		return true
	case value.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat())
	case value.KindInt:
		return a.AsInt() == b.AsInt()
	case value.KindString:
		return a.AsString() == b.AsString()
	case value.KindBool:
		return a.AsBool() == b.AsBool()
	}
	return false
}

// trickyRel exercises every encoding path: an int column with long
// runs (RLE), a low-cardinality string column (dictionary), a float
// column with ±0.0 / NaN / ±Inf / NULLs, a bool column, and a
// mixed-kind column (boxed, no zone stats).
func trickyRel(rows int) *relation.Relation {
	s := relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "run", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "dict", Type: value.KindString},
		relation.Column{Qualifier: "t", Name: "f", Type: value.KindFloat},
		relation.Column{Qualifier: "t", Name: "b", Type: value.KindBool},
		relation.Column{Qualifier: "t", Name: "mixed", Type: value.KindInt},
	)
	r := relation.New(s)
	dict := []string{"alpha", "beta", "", "gamma"}
	floats := []value.Value{
		value.Float(0.0), value.Float(math.Copysign(0, -1)), value.Float(math.NaN()),
		value.Float(math.Inf(1)), value.Float(math.Inf(-1)), value.Null,
		value.Float(3.25), value.Float(-1e300),
	}
	mixed := []value.Value{value.Int(7), value.Str("seven"), value.Null, value.Bool(true), value.Float(7.5)}
	for i := 0; i < rows; i++ {
		r.Append(relation.Tuple{
			value.Int(int64(i / 100)), // 100-long runs
			value.Str(dict[i%len(dict)]),
			floats[i%len(floats)],
			value.Bool(i%3 == 0),
			mixed[i%len(mixed)],
		})
	}
	return r
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	for _, rows := range []int{0, 1, 7, ZoneBlockRows, ZoneBlockRows + 1, 3*ZoneBlockRows + 17} {
		rel := trickyRel(rows)
		seg := BuildSegment("tricky", rel)
		got, err := decodeSegment(encodeSegment(seg))
		if err != nil {
			t.Fatalf("rows=%d: decode: %v", rows, err)
		}
		if got.Table != "tricky" || got.Rows != rows {
			t.Fatalf("rows=%d: decoded table=%q rows=%d", rows, got.Table, got.Rows)
		}
		if !got.Schema.Equal(rel.Schema) {
			t.Fatalf("rows=%d: schema mismatch", rows)
		}
		back := got.Relation()
		for i := range rel.Rows {
			for c := range rel.Rows[i] {
				if !cellIdentical(rel.Rows[i][c], back.Rows[i][c]) {
					t.Fatalf("rows=%d: cell (%d,%d): got %v want %v", rows, i, c, back.Rows[i][c], rel.Rows[i][c])
				}
			}
		}
	}
}

func TestSegmentRelationRebuild(t *testing.T) {
	rel := trickyRel(500)
	back := BuildSegment("t", rel).Relation()
	if back.Len() != rel.Len() {
		t.Fatalf("rebuilt %d rows, want %d", back.Len(), rel.Len())
	}
	for i := range rel.Rows {
		for c := range rel.Rows[i] {
			if !cellIdentical(rel.Rows[i][c], back.Rows[i][c]) {
				t.Fatalf("cell (%d,%d): got %v want %v", i, c, back.Rows[i][c], rel.Rows[i][c])
			}
		}
	}
}

func TestSegmentDecodeRejectsCorruption(t *testing.T) {
	seg := BuildSegment("t", trickyRel(300))
	clean := encodeSegment(seg)
	if _, err := decodeSegment(clean); err != nil {
		t.Fatalf("clean bytes rejected: %v", err)
	}
	// Every single-byte flip must be rejected: each frame is
	// checksummed, and the header fields are validated.
	step := len(clean)/257 + 1
	for off := 0; off < len(clean); off += step {
		bad := append([]byte(nil), clean...)
		bad[off] ^= 0xA5
		if _, err := decodeSegment(bad); err == nil {
			t.Fatalf("flip at offset %d went undetected", off)
		}
	}
	// Truncations (torn writes) must be rejected too.
	for _, cut := range []int{0, 1, 10, len(clean) / 2, len(clean) - 1} {
		if _, err := decodeSegment(clean[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
	// Trailing garbage is structural corruption, not slack.
	if _, err := decodeSegment(append(append([]byte(nil), clean...), 0x00)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// TestSegmentForgedLengths: segment files whose frames are intact but
// whose lengths and counts lie decode to an error, or to no more cells
// than the bytes account for, and allocate at most the count cap's
// worth of cells, never the forged figure. They cover the header's
// table name and relation.ReadSchema's column names (a 2^64-1 byte
// string) and column count (as many as Reader.Count lets through), and
// a boxed column's cells, read by value.Reader (a 2^64-1 byte string;
// as many NULLs as the count cap allows, which is valid).
func TestSegmentForgedLengths(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	header := func(rows uint64, schema ...byte) []byte {
		h := value.AppendString(binary.AppendUvarint(nil, segFormatVersion), "t")
		return append(binary.AppendUvarint(h, rows), schema...)
	}
	boxed := func(rows uint64, cells ...byte) []byte {
		col := append([]byte{encBoxed, byte(value.KindNull)}, binary.AppendUvarint(nil, rows)...)
		return spill.AppendFrame(spill.AppendFrame(nil, header(rows, 1, 0, 1, 'x', byte(value.KindNull))), append(col, cells...))
	}
	for _, c := range []struct {
		name  string
		data  []byte
		valid bool
	}{
		{"table name", spill.AppendFrame(nil, append(binary.AppendUvarint(nil, segFormatVersion), huge...)), false},
		{"column name", spill.AppendFrame(nil, header(0, append([]byte{1, 0}, huge...)...)), false},
		{"column count", spill.AppendFrame(nil, header(0, append(binary.AppendUvarint(nil, 4000), make([]byte, 4000)...)...)), false},
		{"boxed string", boxed(1, append([]byte{byte(value.KindString)}, huge...)...), false},
		{"boxed count cap", boxed(4000, make([]byte, 4000)...), true},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		seg, err := decodeSegment(c.data)
		runtime.ReadMemStats(&after)
		if (err == nil) != c.valid {
			t.Errorf("%s: decodeSegment error = %v, want valid=%v", c.name, err, c.valid)
		}
		if err == nil && seg.Rows*seg.Schema.Len() > len(c.data) {
			t.Errorf("%s: %d rows × %d columns from %d bytes", c.name, seg.Rows, seg.Schema.Len(), len(c.data))
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(128*len(c.data)+16<<10); got > limit {
			t.Errorf("%s: allocated %d bytes decoding %d input bytes (limit %d)", c.name, got, len(c.data), limit)
		}
	}
}

// TestSegmentFormatFixture decodes a segment file written by the commit
// before the cell codec moved to package value (PR 16: trickyRel(250),
// so RLE, dictionary, plain and boxed columns are all present). The
// durable format must not move with the code: the old bytes decode cell
// for cell, and re-encoding reproduces them exactly.
func TestSegmentFormatFixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/tricky250_pr16.seg")
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeSegment(fixture)
	if err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}
	want := trickyRel(250)
	if got.Table != "tricky" || got.Rows != want.Len() || !got.Schema.Equal(want.Schema) {
		t.Fatalf("fixture header: table=%q rows=%d schema=%v", got.Table, got.Rows, got.Schema)
	}
	back := got.Relation()
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !cellIdentical(want.Rows[i][c], back.Rows[i][c]) {
				t.Fatalf("cell (%d,%d): got %v want %v", i, c, back.Rows[i][c], want.Rows[i][c])
			}
		}
	}
	if !bytes.Equal(encodeSegment(BuildSegment("tricky", want)), fixture) {
		t.Fatal("re-encoding the fixture's relation no longer yields the fixture's bytes")
	}
}

// TestRLEDecodeRejectsDegenerateRuns: an empty run carrying a cell, and
// a run whose length wraps the running total, both pass a plain
// sum-of-runs check and then index past the column.
func TestRLEDecodeRejectsDegenerateRuns(t *testing.T) {
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for name, payload := range map[string][]byte{
		"empty run with a cell": {encRLE, byte(value.KindInt), 0, 1, 0, 1, 0},
		"wrapping run length":   append(append([]byte{encRLE, byte(value.KindInt), 1, 3, 1, 1, 0}, huge...), 1, 0, 1, 1, 0),
	} {
		if _, err := decodeColumn(payload); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

func TestZoneMapCanPrune(t *testing.T) {
	z := ZoneMap{Min: value.Int(10), Max: value.Int(20), Rows: 5}
	cases := []struct {
		op   value.CmpOp
		lit  value.Value
		want bool
	}{
		{value.EQ, value.Int(5), true},
		{value.EQ, value.Int(10), false},
		{value.EQ, value.Int(15), false},
		{value.EQ, value.Int(20), false},
		{value.EQ, value.Int(25), true},
		{value.NE, value.Int(15), false},
		{value.LT, value.Int(10), true},
		{value.LT, value.Int(11), false},
		{value.LE, value.Int(9), true},
		{value.LE, value.Int(10), false},
		{value.GT, value.Int(20), true},
		{value.GT, value.Int(19), false},
		{value.GE, value.Int(21), true},
		{value.GE, value.Int(20), false},
		{value.EQ, value.Null, false},         // NULL literal never prunes
		{value.EQ, value.Str("x"), false},     // incomparable domain keeps the block
		{value.EQ, value.Float(20.5), true},   // numeric widening prunes
		{value.EQ, value.Float(19.5), false},  // inside the range
		{value.GT, value.Float(20.25), true},  // max 20 cannot exceed 20.25
		{value.LT, value.Float(9.75), true},   // min 10 cannot be below 9.75
		{value.GE, value.Float(19.75), false}, // max 20 satisfies
	}
	for _, c := range cases {
		if got := z.CanPrune(c.op, c.lit); got != c.want {
			t.Errorf("CanPrune(%v, %v) = %v, want %v", c.op, c.lit, got, c.want)
		}
	}
	// A point block prunes NE at its value.
	pt := ZoneMap{Min: value.Int(7), Max: value.Int(7), Rows: 3}
	if !pt.CanPrune(value.NE, value.Int(7)) {
		t.Error("point block should prune NE at its only value")
	}
	if pt.CanPrune(value.NE, value.Int(8)) {
		t.Error("point block must keep NE at a different value")
	}
	// Missing statistics (all-NULL or boxed block) never prune.
	empty := ZoneMap{Rows: 4, HasNull: true}
	for _, op := range []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE} {
		if empty.CanPrune(op, value.Int(1)) {
			t.Errorf("stat-less block pruned for %v", op)
		}
	}
}

// TestZoneMapPruningSound is the property behind the executor's scan
// pruning: whenever a block's zone map prunes a predicate, no row of
// that block satisfies it.
func TestZoneMapPruningSound(t *testing.T) {
	rel := trickyRel(3*ZoneBlockRows + 123)
	tab := NewTable("t", rel)
	ops := []value.CmpOp{value.EQ, value.NE, value.LT, value.LE, value.GT, value.GE}
	lits := []value.Value{
		value.Int(0), value.Int(3), value.Int(31), value.Int(-1),
		value.Float(2.5), value.Float(0), value.Str("beta"), value.Str(""),
		value.Bool(true), value.Null,
	}
	for ci := range rel.Schema.Columns {
		for b, z := range tab.Zones(ci) {
			lo, hi := b*ZoneBlockRows, min((b+1)*ZoneBlockRows, rel.Len())
			for _, op := range ops {
				for _, lit := range lits {
					if !z.CanPrune(op, lit) {
						continue
					}
					for i := lo; i < hi; i++ {
						v := rel.Rows[i][ci]
						if v.IsNull() {
							continue // NULL never satisfies a comparison
						}
						c, ok := value.Compare(v, lit)
						if !ok {
							t.Fatalf("col %d block %d: pruned %v %v but row %d is incomparable", ci, b, op, lit, i)
						}
						if cmpSatisfied(op, c) {
							t.Fatalf("col %d block %d: pruned %v %v but row %d (=%v) satisfies it", ci, b, op, lit, i, v)
						}
					}
				}
			}
		}
	}
}

func cmpSatisfied(op value.CmpOp, c int) bool {
	switch op {
	case value.EQ:
		return c == 0
	case value.NE:
		return c != 0
	case value.LT:
		return c < 0
	case value.LE:
		return c <= 0
	case value.GT:
		return c > 0
	case value.GE:
		return c >= 0
	}
	return false
}

// TestSegmentKeyHashes pins the packed-column hash vector to the
// row-oriented FNV-1a mix the GMDJ computes: bit-identical hashes,
// ok=false exactly when a key cell is NULL.
func TestSegmentKeyHashes(t *testing.T) {
	rel := trickyRel(700)
	seg := BuildSegment("t", rel)
	keys := [][]int{{0}, {1}, {0, 2}, {4}, {2, 4, 1}, {}}
	for _, key := range keys {
		h, ok := seg.KeyHashes(key)
		if len(h) != rel.Len() || len(ok) != rel.Len() {
			t.Fatalf("key %v: vector lengths %d/%d, want %d", key, len(h), len(ok), rel.Len())
		}
		for i, row := range rel.Rows {
			acc := uint64(14695981039346656037)
			valid := true
			for _, c := range key {
				if row[c].IsNull() {
					valid = false
					break
				}
				acc ^= row[c].Hash()
				acc *= 1099511628211
			}
			if valid != ok[i] {
				t.Fatalf("key %v row %d: ok=%v, want %v", key, i, ok[i], valid)
			}
			if valid && h[i] != acc {
				t.Fatalf("key %v row %d: hash %#x, want %#x", key, i, h[i], acc)
			}
			if !valid && h[i] != 0 {
				t.Fatalf("key %v row %d: null-key hash should be 0, got %#x", key, i, h[i])
			}
		}
	}
}

// TestTableSegmentCachedPerVersion: Segment is a snapshot of the
// table's column vectors. Without growth — a new version over the same
// rows included — it hands out the same vectors; after an append it
// extends them, and an older snapshot keeps its own rows.
func TestTableSegmentCachedPerVersion(t *testing.T) {
	tab := NewTable("t", trickyRel(50))
	s1 := tab.Segment()
	tab.BumpVersion()
	if s2 := tab.Segment(); !slices.Equal(s2.Cols, s1.Cols) {
		t.Fatal("column vectors rebuilt without an append")
	}
	tab.Rel.Append(make(relation.Tuple, tab.Rel.Schema.Len()))
	tab.BumpVersion()
	s3 := tab.Segment()
	if s3.Rows != 51 || s3.Cols[0].Len() != 51 {
		t.Fatalf("segment after an append has %d rows (column 0: %d), want 51", s3.Rows, s3.Cols[0].Len())
	}
	if s1.Rows != 50 || s1.Cols[0].Len() != 50 || s1.Relation().Diff(BuildSegment("t", &relation.Relation{Schema: tab.Rel.Schema, Rows: tab.Rel.Rows[:50]}).Relation()) != "" {
		t.Fatal("an older snapshot changed under an append")
	}
}

// TestTableZonesWithoutSegment: Table.Zones gives, per column, exactly
// the zone maps computed from a segment packed from the same rows —
// NaN, ±0, NULL runs and the mixed-kind column included — without
// packing one, builds them for the columns asked for and no other, and
// hands the same slice out until the table grows.
func TestTableZonesWithoutSegment(t *testing.T) {
	rel := trickyRel(2*ZoneBlockRows + 100)
	tab := NewTable("t", rel)
	if got := tab.Zones(0); len(got) != 3 {
		t.Fatalf("%d zone maps, want 3", len(got))
	}
	if len(tab.zones) != 1 {
		t.Fatalf("%d columns cached, want the one asked for", len(tab.zones))
	}
	zonesMatchSegment(t, tab)
	if tab.cols != nil {
		t.Fatal("Zones built a column vector")
	}

	first := tab.Zones(0)
	tab.BumpVersion() // an index change: a new version over the same rows
	if again := tab.Zones(0); &again[0] != &first[0] {
		t.Fatal("zone maps rebuilt although the table did not grow")
	}
	for i := 0; i < ZoneBlockRows; i++ {
		rel.Append(rel.Rows[i].Clone())
	}
	tab.BumpVersion()
	if grown := tab.Zones(0); len(grown) != 4 {
		t.Fatalf("after an append: %d zone maps, want 4", len(grown))
	}
	zonesMatchSegment(t, tab)
}

// zonesMatchSegment checks every column's Table.Zones against the zone
// maps computed from a segment packed from the table's rows as they are
// now (segmentZones), which reach the cells by other code (BuildSegment).
func zonesMatchSegment(t *testing.T, tab *Table) {
	t.Helper()
	want := segmentZones(BuildSegment(tab.Name, tab.Rel))
	for c := range want {
		got := tab.Zones(c)
		if len(got) != len(want[c]) {
			t.Fatalf("column %d: %d zone maps over %d rows, a segment has %d", c, len(got), tab.Rel.Len(), len(want[c]))
		}
		for b, w := range want[c] {
			if got[b].Rows != w.Rows || got[b].HasNull != w.HasNull ||
				!cellIdentical(got[b].Min, w.Min) || !cellIdentical(got[b].Max, w.Max) {
				t.Fatalf("column %d block %d over %d rows: zones from rows %+v, from a segment %+v", c, b, tab.Rel.Len(), got[b], w)
			}
		}
	}
}

// segmentZones is the reference zone maps: per column, per block of
// ZoneBlockRows rows, computed from the packed columns. A mixed column,
// stored Boxed, keeps no min/max: cross-kind Compare is partial, so the
// bounds could be unsound.
func segmentZones(s *Segment) [][]ZoneMap {
	out := make([][]ZoneMap, len(s.Cols))
	for ci, col := range s.Cols {
		out[ci] = make([]ZoneMap, (s.Rows+ZoneBlockRows-1)/ZoneBlockRows)
		for b := range out[ci] {
			lo, hi := b*ZoneBlockRows, min((b+1)*ZoneBlockRows, s.Rows)
			z := ZoneMap{Rows: hi - lo}
			for i := lo; i < hi; i++ {
				if col.Nulls[i] {
					z.HasNull = true
				} else if col.Boxed == nil {
					z.add(col.Value(i))
				}
			}
			out[ci][b] = z
		}
	}
	return out
}

// TestZonesExtendMatchScratch: zone maps extended append by append are
// the ones built from scratch over the same rows, whatever the appends
// — single rows, runs ending exactly on a block boundary, several
// blocks at once, blocks of nothing but NULLs, a column whose first
// cell of another kind arrives in a late block (which must blank the
// bounds of every earlier block too) — and whichever columns were asked
// for in between.
func TestZonesExtendMatchScratch(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rel := relation.New(relation.NewSchema(
			relation.Column{Qualifier: "z", Name: "k", Type: value.KindInt},
			relation.Column{Qualifier: "z", Name: "sparse", Type: value.KindFloat},
			relation.Column{Qualifier: "z", Name: "late", Type: value.KindInt},
		))
		tab := NewTable("z", rel)
		mixedFrom := 2*ZoneBlockRows + rng.Intn(3*ZoneBlockRows)
		for step := 0; step < 40; step++ {
			n := []int{1, 1 + rng.Intn(50), ZoneBlockRows - rel.Len()%ZoneBlockRows, ZoneBlockRows, 2*ZoneBlockRows + 3}[rng.Intn(5)]
			nullBlock := rng.Intn(4) == 0
			for i := 0; i < n; i++ {
				k := rel.Len()
				sparse, late := value.Float(float64(rng.Intn(1000))/8), value.Int(int64(rng.Intn(100)))
				if nullBlock || rng.Intn(3) == 0 {
					sparse = value.Null
				}
				if k == mixedFrom {
					late = value.Str("seven")
				}
				rel.Append(relation.Tuple{value.Int(int64(k)), sparse, late})
			}
			tab.BumpVersion()
			if rng.Intn(3) > 0 { // a column may sit out several appends
				tab.Zones(rng.Intn(3))
				continue
			}
			zonesMatchSegment(t, tab)
		}
		zonesMatchSegment(t, tab)
		if rel.Len() > mixedFrom {
			if z := tab.Zones(2)[0]; !z.Min.IsNull() || !z.Max.IsNull() {
				t.Fatalf("seed %d: a mixed column kept bounds in block 0: %+v", seed, z)
			}
		}
	}
}

// TestZonesReaderKeepsSliceAcrossExtend (for -race): a scan holds the
// slice Zones gave it outside the table's lock, so extending the zone
// maps must write a new one.
func TestZonesReaderKeepsSliceAcrossExtend(t *testing.T) {
	rel := trickyRel(ZoneBlockRows + 10)
	tab := NewTable("t", rel)
	held := tab.Zones(0)
	want := slices.Clone(held)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for b := range held {
					if held[b].Rows != want[b].Rows || !cellIdentical(held[b].Max, want[b].Max) {
						t.Errorf("block %d changed under a reader: %+v", b, held[b])
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		rel.Append(relation.Tuple{value.Int(int64(1000 + i)), value.Str("z"), value.Null, value.Bool(true), value.Int(1)})
		tab.BumpVersion()
		tab.Zones(0)
	}
	close(done)
	wg.Wait()
	if got := tab.Zones(0); len(got) != 2 || got[1].Rows != 210 {
		t.Fatalf("after the appends: %+v", got)
	}
}

func TestQuarantine(t *testing.T) {
	tab := NewTable("q", trickyRel(5))
	if err := tab.CheckQuarantine(); err != nil {
		t.Fatalf("fresh table quarantined: %v", err)
	}
	tab.Quarantine("checksum mismatch in q-1-0.seg")
	reason, ok := tab.QuarantineReason()
	if !ok || reason == "" {
		t.Fatal("quarantine reason missing")
	}
	err := tab.CheckQuarantine()
	if err == nil {
		t.Fatal("CheckQuarantine nil on quarantined table")
	}
	if !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("quarantine error %v does not wrap ErrSegmentCorrupt", err)
	}
}

func FuzzSegmentDecode(f *testing.F) {
	f.Add(encodeSegment(BuildSegment("t", trickyRel(40))))
	f.Add(encodeSegment(BuildSegment("", trickyRel(0))))
	f.Add(encodeSegment(BuildSegment("big", trickyRel(ZoneBlockRows+9))))
	f.Add([]byte{})
	f.Add([]byte("GSPL garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := decodeSegment(data)
		if err != nil {
			return
		}
		// Whatever decodes must be internally consistent: column count
		// and lengths match the header, and rebuilding rows is safe.
		if len(seg.Cols) != seg.Schema.Len() {
			t.Fatalf("decoded %d columns for a %d-column schema", len(seg.Cols), seg.Schema.Len())
		}
		for c, col := range seg.Cols {
			if col.Len() != seg.Rows {
				t.Fatalf("column %d has %d rows, header says %d", c, col.Len(), seg.Rows)
			}
		}
		_ = seg.Relation()
		if len(seg.Cols) > 0 {
			_, _ = seg.KeyHashes([]int{0})
		}
	})
}

// TestManifestV1Fixture decodes a manifest written by the commit before
// tables became lists of files (format version 1: one file per entry):
// a directory that commit wrote must still open.
func TestManifestV1Fixture(t *testing.T) {
	fixture, err := os.ReadFile("testdata/manifest_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(fixture)
	if err != nil {
		t.Fatalf("fixture rejected: %v", err)
	}
	want := []manifestEntry{
		{Table: "small", Files: []segmentFile{{File: "small-7-0.seg", Rows: 2}}},
		{Table: "tricky", Files: []segmentFile{{File: "tricky-3-1.seg", Rows: 250}}, Schema: trickyRel(0).Schema},
	}
	if m.Generation != 7 || len(m.Entries) != len(want) {
		t.Fatalf("fixture decoded as generation %d with %d entries", m.Generation, len(m.Entries))
	}
	for i, e := range m.Entries {
		if e.Table != want[i].Table || !slices.Equal(e.Files, want[i].Files) {
			t.Errorf("entry %d: %q %v, want %q %v", i, e.Table, e.Files, want[i].Table, want[i].Files)
		}
	}
	if !m.Entries[1].Schema.Equal(want[1].Schema) {
		t.Errorf("tricky's schema: %v", m.Entries[1].Schema)
	}
	// What is written from now on is version 2 and round-trips.
	back, err := decodeManifest(encodeManifest(m))
	if err != nil || len(back.Entries) != 2 || !slices.Equal(back.Entries[1].Files, want[1].Files) {
		t.Fatalf("re-encoded fixture: %+v, %v", back, err)
	}
	if bytes.Equal(encodeManifest(m), fixture) {
		t.Fatal("encodeManifest still writes version 1")
	}
}

func FuzzManifestDecode(f *testing.F) {
	seg := BuildSegment("t", trickyRel(3))
	f.Add(encodeManifest(&manifest{Generation: 4, Entries: []manifestEntry{
		{Table: "t", Files: []segmentFile{{"t-2-0.seg", 2}, {"t-4-0.seg", 1}}, Schema: seg.Schema},
	}}))
	f.Add(encodeManifest(&manifest{Generation: 1}))
	if v1, err := os.ReadFile("testdata/manifest_v1.bin"); err == nil {
		f.Add(v1)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		for i, e := range m.Entries {
			if e.Table == "" || len(e.Files) == 0 {
				t.Fatalf("entry %d decoded with empty table/files", i)
			}
			for _, f := range e.Files {
				if f.File == "" {
					t.Fatalf("entry %d decoded with an unnamed file", i)
				}
			}
		}
	})
}

// TestColumnEncodeIdempotent: a STRING column encodes, decodes and
// encodes again to the same bytes, and decodes to the same cells, for
// every way one is held: coded by Append (a dictionary in insertion
// order, not string order), coded but the prefix of a longer column
// (its dictionary has entries its rows do not use), plain, in runs, all
// NULL, and past relation.MaxDict. A dictionary-encoded column decodes
// coded, with the dictionary it was written with; a forged index past
// the dictionary is an error.
func TestColumnEncodeIdempotent(t *testing.T) {
	column := func(coded bool, n int, cell func(i int) value.Value) *relation.ColVec {
		rows := make([]relation.Tuple, n)
		for i := range rows {
			rows[i] = relation.Tuple{cell(i)}
		}
		c := &relation.ColVec{Kind: value.KindString}
		if coded {
			c = relation.Coded(value.KindString)
		}
		c.Append(rows, 0)
		return c
	}
	few := func(i int) value.Value {
		if i%7 == 3 {
			return value.Null
		}
		return value.Str([]string{"b", "", "a", "c"}[i*5%4])
	}
	long := column(true, 300, func(i int) value.Value { return value.Str(fmt.Sprintf("%03d", i%20+i/200*i)) })
	cases := map[string]*relation.ColVec{
		"coded":          column(true, 200, few),
		"coded prefix":   long.Prefix(200),
		"plain":          column(false, 200, few),
		"runs":           column(true, 200, func(i int) value.Value { return value.Str([]string{"x", "y"}[i/50%2]) }),
		"all NULL":       column(true, 50, func(int) value.Value { return value.Null }),
		"past the bound": column(true, relation.MaxDict+50, func(i int) value.Value { return value.Str(fmt.Sprintf("v%d", i%(relation.MaxDict+1))) }),
	}
	if cases["past the bound"].Dict != nil || long.Dict == nil {
		t.Fatal("want the column past the bound plain, the others coded")
	}
	for name, c := range cases {
		enc := encodeColumn(c)
		got, err := decodeColumn(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again := encodeColumn(got); !bytes.Equal(again, enc) {
			t.Errorf("%s: encode → decode → encode moved the bytes", name)
		}
		for i := 0; i < c.Len(); i++ {
			if !cellIdentical(got.Value(i), c.Value(i)) {
				t.Fatalf("%s: row %d decoded %v, want %v", name, i, got.Value(i), c.Value(i))
			}
		}
		if enc[0] == encDict && (got.Dict == nil || len(got.DictHash) != len(got.Dict)) {
			t.Errorf("%s: a dictionary-encoded column decoded plain", name)
		}
	}
	for _, name := range []string{"coded", "coded prefix", "plain"} {
		if enc := encodeColumn(cases[name]); enc[0] != encDict {
			t.Fatalf("%s: encoding %d, want the dictionary's", name, enc[0])
		}
	}
	if len(long.Dict) <= 20 {
		t.Fatal("the prefix's column has no entries the prefix does not use")
	}
	// One row, one dictionary entry, index 1.
	forged := []byte{encDict, byte(value.KindString), 1, 0, 1, 1, 'a', 1}
	if _, err := decodeColumn(forged); err == nil || !strings.Contains(err.Error(), "dict index 1 out of range") {
		t.Errorf("forged index: %v", err)
	}
}
