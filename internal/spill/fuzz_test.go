package spill_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/olaplab/gmdj/internal/spill"
)

// forgedInputs are payloads whose lengths and counts lie: a frame
// header claiming a 2^64-1 byte payload, a partition of one position
// claiming 2^64-1 key hashes, a partition claiming as many positions as
// Reader.Count lets through, and a position count far past the bytes.
func forgedInputs() [][]byte {
	frame := binary.LittleEndian.AppendUint64(append([]byte("GSPL"), 1), math.MaxUint64)
	frame = binary.LittleEndian.AppendUint64(frame, 0)
	wide := append(binary.AppendUvarint(nil, 4000), make([]byte, 4000)...)
	return [][]byte{
		frame,
		append([]byte{1, 0}, binary.AppendUvarint(nil, math.MaxUint64)...),
		wide,
		append(binary.AppendUvarint(nil, math.MaxUint64/9+1), 0, 0),
	}
}

// decoders are the entry points that take untrusted bytes. Each reports
// how many items (payload bytes, positions plus key hashes) it handed
// back, which a well-behaved decoder cannot make exceed the input's
// length: every item costs at least one input byte.
var decoders = map[string]func(data []byte) int{
	"DecodeFrame": func(data []byte) int {
		payload, n, err := spill.DecodeFrame(data)
		if err == nil && (n > len(data) || len(payload) != n-spill.FrameOverhead) {
			panic(fmt.Sprintf("a %d-byte payload in a %d-byte frame of %d input bytes", len(payload), n, len(data)))
		}
		return len(payload)
	},
	"DecodePositions": func(data []byte) int {
		const nBase = 1 << 10
		idx, hash, err := spill.DecodePositions(data, nBase)
		for i, pos := range idx {
			if pos >= nBase || i > 0 && pos <= idx[i-1] {
				panic(fmt.Sprintf("position %d of %v is out of order or past the base", i, idx))
			}
		}
		if err == nil && len(hash) != 0 && len(hash) != len(idx) {
			panic(fmt.Sprintf("%d key hashes for %d positions", len(hash), len(idx)))
		}
		return len(idx) + len(hash)
	},
}

// FuzzSpillDecode holds every spill decoder to the codec's contract:
// arbitrary bytes yield an error or a value, never a panic, and what
// comes back is no larger than the input accounts for.
func FuzzSpillDecode(f *testing.F) {
	f.Add(spill.AppendFrame(nil, spill.EncodePositions([]int32{2, 5}, nil)))
	f.Add(spill.EncodePositions([]int32{3, 7, 11}, []uint64{0xfeedface, 0, 1 << 63}))
	f.Add(spill.EncodePositions([]int32{0, 1000}, nil))
	f.Add(spill.EncodePositions([]int32{4, 4}, nil))    // not ascending
	f.Add(spill.EncodePositions([]int32{1 << 10}, nil)) // past the base
	for _, data := range forgedInputs() {
		f.Add(data)
	}
	f.Add([]byte{})
	// Frames that fail each header check in turn: a short payload, a
	// flipped payload byte under the stored checksum, an unknown version.
	frame := spill.AppendFrame(nil, spill.EncodePositions([]int32{1, 2}, []uint64{3, 4}))
	f.Add(frame[:len(frame)-1])
	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xff
	f.Add(corrupt)
	f.Add(append(append([]byte("GSPL"), 2), frame[5:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, decode := range decoders {
			if n := decode(data); n > len(data) {
				t.Fatalf("%s returned %d items from %d input bytes", name, n, len(data))
			}
		}
	})
}

// TestForgedLengthsAllocateLittle measures what the fuzz target cannot
// see, the allocations of a decode that fails: a forged count or length
// buys at most the count cap's worth of items, never the forged figure.
// (Here, not in the fuzz target: TotalAlloc is process-wide and a fuzz
// worker's own goroutines allocate concurrently.)
func TestForgedLengthsAllocateLittle(t *testing.T) {
	for i, data := range forgedInputs() {
		limit := uint64(128*len(data) + 16<<10)
		for name, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decode(data)
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > limit {
				t.Errorf("input %d: %s allocated %d bytes decoding %d input bytes (limit %d)", i, name, got, len(data), limit)
			}
		}
	}
}
