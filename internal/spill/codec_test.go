package spill

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func sampleRelation() *relation.Relation {
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "id", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "score", Type: value.KindFloat},
		relation.Column{Qualifier: "", Name: "tag", Type: value.KindString},
		relation.Column{Qualifier: "t", Name: "ok", Type: value.KindBool},
	))
	rel.Append(relation.Tuple{value.Int(1), value.Float(3.25), value.Str("alpha"), value.Bool(true)})
	rel.Append(relation.Tuple{value.Int(-42), value.Float(-0.5), value.Str(""), value.Bool(false)})
	rel.Append(relation.Tuple{value.Null, value.Null, value.Str("héllo – utf8"), value.Null})
	return rel
}

func TestRelationRoundTrip(t *testing.T) {
	rel := sampleRelation()
	out, err := DecodeRelation(EncodeRelation(rel))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rel.Schema.Columns, out.Schema.Columns) {
		t.Fatalf("schema mismatch: %+v vs %+v", rel.Schema.Columns, out.Schema.Columns)
	}
	if !reflect.DeepEqual(rel.Rows, out.Rows) {
		t.Fatalf("rows mismatch:\n%v\n%v", rel.Rows, out.Rows)
	}
}

func TestTupleRoundTrip(t *testing.T) {
	in := relation.Tuple{value.Int(1 << 40), value.Str("x"), value.Null}
	buf := AppendTuple(nil, in)
	r := value.NewReader(buf)
	out := ReadTuple(r)
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("tuple mismatch: %v vs %v", in, out)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	for _, hash := range [][]uint64{nil, {0, 1 << 63, math.MaxUint64, 7}} {
		idx := []int32{0, 3, 200, 1 << 20}
		gotIdx, gotHash, err := DecodePositions(EncodePositions(idx, hash), 1<<20+1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(idx, gotIdx) || !reflect.DeepEqual(hash, gotHash) {
			t.Fatalf("got %v, %v; want %v, %v", gotIdx, gotHash, idx, hash)
		}
	}
}

// TestPositionsRejected: a checksum-valid payload naming no valid
// partition of a 16-row base is an error, never a panic or a position a
// gather would index out of range with.
func TestPositionsRejected(t *testing.T) {
	valid := EncodePositions([]int32{1, 2, 15}, []uint64{9, 8, 7})
	for name, data := range map[string][]byte{
		"repeated position":   EncodePositions([]int32{1, 4, 4}, nil),
		"descending position": EncodePositions([]int32{5, 3}, nil),
		"position past base":  EncodePositions([]int32{2, 16}, nil),
		"fewer hashes":        EncodePositions([]int32{1, 2}, []uint64{5}),
		"more hashes":         EncodePositions([]int32{1}, []uint64{5, 6}),
		"trailing bytes":      append(slices.Clone(valid), 0),
		"forged hash count":   append([]byte{1, 0}, binary.AppendUvarint(nil, math.MaxUint64)...),
	} {
		if idx, hash, err := DecodePositions(data, 16); err == nil {
			t.Errorf("%s: decoded %v, %v", name, idx, hash)
		}
	}
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := DecodePositions(valid[:cut], 16); err == nil {
			t.Errorf("a %d-byte prefix of %d decoded", cut, len(valid))
		}
	}
}

// Decoding corrupted or truncated bytes must error, never panic.
func TestDefensiveDecoding(t *testing.T) {
	rel := sampleRelation()
	enc := EncodeRelation(rel)
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeRelation(enc[:cut]); err == nil && cut < len(enc) {
			// Some prefixes happen to parse as a shorter valid relation —
			// that is acceptable (checksums catch real corruption); the
			// point is no panic.
			continue
		}
	}
	if _, err := DecodeRelation([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("garbage relation decoded")
	}
	// A forged string length of 2^64-1 wraps to -1 as an int; bounds
	// arithmetic on it used to slice backwards and panic.
	forged := append([]byte{1, byte(value.KindString)}, binary.AppendUvarint(nil, math.MaxUint64)...)
	r := value.NewReader(forged)
	if ReadTuple(r); r.Err() == nil {
		t.Fatal("tuple with a 2^64-1 byte string decoded")
	}
	if _, err := DecodeRelation(append([]byte{0, 1}, forged...)); err == nil {
		t.Fatal("relation with a 2^64-1 byte string decoded")
	}
}
