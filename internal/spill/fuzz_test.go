package spill_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/spill"
	"github.com/olaplab/gmdj/internal/value"
)

// forgedInputs are payloads whose lengths and counts lie: a 2^64-1 byte
// string in a one-cell tuple (bare, inside a relation), a partition of
// one position claiming 2^64-1 key hashes, a tuple and a relation
// claiming as many cells/rows as Reader.Count lets through, and a count
// whose product with a nine-byte row wraps around to its two bytes.
func forgedInputs() [][]byte {
	forged := append([]byte{1, byte(value.KindString)}, binary.AppendUvarint(nil, math.MaxUint64)...)
	wide := append(binary.AppendUvarint(nil, 4000), make([]byte, 4000)...)
	return [][]byte{
		forged,
		append([]byte{1, 0}, binary.AppendUvarint(nil, math.MaxUint64)...),
		append([]byte{0, 1}, forged...),
		wide,
		append([]byte{0}, wide...),
		append(binary.AppendUvarint(nil, math.MaxUint64/9+1), 0, 0),
	}
}

// decoders are the entry points that take untrusted bytes. Each reports
// how many rows, cells and string bytes it handed back, which a
// well-behaved decoder cannot make exceed the input's length: every
// row, cell and string byte costs at least one payload byte.
var decoders = map[string]func(data []byte) (rows, cells, strBytes int){
	"DecodeRelation": func(data []byte) (int, int, int) {
		rel, err := spill.DecodeRelation(data)
		if err != nil {
			return 0, 0, 0
		}
		return measure(rel.Rows)
	},
	// A partition's positions and hashes count as rows and cells.
	"DecodePositions": func(data []byte) (int, int, int) {
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
		return len(idx), len(hash), 0
	},
	"ReadTuple": func(data []byte) (int, int, int) {
		return measure([]relation.Tuple{spill.ReadTuple(value.NewReader(data))})
	},
}

func measure(rows []relation.Tuple) (n, cells, strBytes int) {
	for _, t := range rows {
		cells += len(t)
		for _, v := range t {
			if v.Kind() == value.KindString {
				strBytes += len(v.AsString())
			}
		}
	}
	return len(rows), cells, strBytes
}

// FuzzSpillDecode holds every spill decoder to the codec's contract:
// arbitrary bytes yield an error or a value, never a panic, and what
// comes back is no larger than the input accounts for.
func FuzzSpillDecode(f *testing.F) {
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "id", Type: value.KindInt},
		relation.Column{Name: "tag", Type: value.KindString},
	))
	rel.Append(relation.Tuple{value.Int(-42), value.Str("alpha")})
	rel.Append(relation.Tuple{value.Float(math.Copysign(0, -1)), value.Null})
	rel.Append(relation.Tuple{value.Bool(true), value.Str("")})
	f.Add(spill.EncodeRelation(rel))
	f.Add(spill.EncodePositions([]int32{3, 7, 11}, []uint64{0xfeedface, 0, 1 << 63}))
	f.Add(spill.EncodePositions([]int32{0, 1000}, nil))
	f.Add(spill.EncodePositions([]int32{4, 4}, nil))    // not ascending
	f.Add(spill.EncodePositions([]int32{1 << 10}, nil)) // past the base
	f.Add(spill.AppendTuple(nil, rel.Rows[0]))
	for _, data := range forgedInputs() {
		f.Add(data)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for name, decode := range decoders {
			// ReadTuple alone returns its (count-capped) tuple on error
			// too, hence the +1 a one-byte input can claim.
			if rows, cells, strBytes := decode(data); rows > len(data)+1 || cells > len(data)+1 || strBytes > len(data) {
				t.Fatalf("%s returned %d rows, %d cells, %d string bytes from %d input bytes", name, rows, cells, strBytes, len(data))
			}
		}
	})
}

// TestForgedLengthsAllocateLittle measures what the fuzz target cannot
// see, the allocations of a decode that fails: a forged count or length
// buys at most the count cap's worth of 32-byte cells, never the forged
// figure. (Here, not in the fuzz target: TotalAlloc is process-wide and
// a fuzz worker's own goroutines allocate concurrently.)
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
