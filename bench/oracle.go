package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	gmdj "github.com/olaplab/gmdj"
)

// expect is what the oracle recorded for one query: its row count and
// an order-independent checksum of the rows.
type expect struct {
	rows int
	sum  uint64
}

func (e expect) String() string { return fmt.Sprintf("%d rows, checksum %016x", e.rows, e.sum) }

// digest reduces a result to an expect. Rows hash independently and
// the hashes add, so any row order gives the same checksum. Numeric
// cells hash by their float64 bits: the library returns int64 and
// float64 where the HTTP path returns JSON numbers, and both must
// digest alike (the generators stay far below 2^53, where int64 →
// float64 is exact).
func digest(rows [][]any) expect {
	e := expect{rows: len(rows)}
	var buf [9]byte
	for _, row := range rows {
		h := fnv.New64a()
		for _, cell := range row {
			switch v := cell.(type) {
			case nil:
				h.Write([]byte{0})
			case string:
				h.Write([]byte{2})
				h.Write([]byte(v))
				h.Write([]byte{0})
			case bool:
				if v {
					h.Write([]byte{3, 1})
				} else {
					h.Write([]byte{3, 0})
				}
			default:
				var f float64
				switch n := v.(type) {
				case int64:
					f = float64(n)
				case float64:
					f = n
				case json.Number:
					f, _ = n.Float64()
				default:
					panic(fmt.Sprintf("bench: result cell of type %T", cell))
				}
				buf[0] = 1
				bits := math.Float64bits(f)
				for i := 0; i < 8; i++ {
					buf[1+i] = byte(bits >> (8 * i))
				}
				h.Write(buf[:])
			}
		}
		e.sum += h.Sum64()
	}
	return e
}

// oracle holds the expected answer for every query the sequence can
// issue, keyed by the operation's key.
type oracle map[string]expect

// record evaluates sql under the Native strategy — plain tuple
// iteration, sharing no rewriting or GMDJ code with the strategy under
// test — and stores its digest under key. Keys repeat when several
// operations issue the same text; the first evaluation stands.
func (o oracle) record(db *gmdj.DB, key, sql string) error {
	if _, done := o[key]; done {
		return nil
	}
	res, err := db.QueryStrategy(sql, gmdj.Native)
	if err != nil {
		return fmt.Errorf("oracle %s: %w", key, err)
	}
	o[key] = digest(res.Rows)
	return nil
}

// check compares a result against the oracle; a key the oracle never
// saw is a harness bug and fails the same way.
func (o oracle) check(key string, got expect) error {
	want, ok := o[key]
	if !ok {
		return fmt.Errorf("no oracle entry for %s", key)
	}
	if got != want {
		return fmt.Errorf("%s: got %s, oracle has %s", key, got, want)
	}
	return nil
}
