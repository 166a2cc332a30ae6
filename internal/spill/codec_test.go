package spill

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestFrameRoundTrip walks consecutive frames, the empty payload among
// them, by the length DecodeFrame reports; no strict prefix of a frame
// decodes.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("first"), {}, EncodePositions([]int32{1, 9}, []uint64{2, 3})}
	var buf []byte
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	rest := buf
	for i, want := range payloads {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !slices.Equal(got, want) || n != FrameOverhead+len(want) {
			t.Fatalf("frame %d: %q in %d bytes, want %q in %d", i, got, n, want, FrameOverhead+len(want))
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	one := AppendFrame(nil, payloads[0])
	for cut := 0; cut < len(one); cut++ {
		if _, _, err := DecodeFrame(one[:cut]); err == nil {
			t.Errorf("a %d-byte prefix of %d decoded", cut, len(one))
		}
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
