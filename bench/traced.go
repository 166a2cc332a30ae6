package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"
)

// tracedOps is how many operations of the sequence the traced pass
// replays: the same first operations on every run, so its counts
// repeat exactly.
const tracedOps = 40

// tracedQuery is one query of the traced pass: the latency of the real
// path beside the staged replay of the same statement.
type tracedQuery struct {
	class int
	// real is what the client saw: DB.Query for the library workloads,
	// the loopback request for serve_small. handler and direct are
	// serve_small's two inner measurements of the same statement (through
	// Handler().ServeHTTP without a socket, and straight into the DB).
	real, handler, direct time.Duration
	st                    *staged
}

// tracedPass is everything the traced pass measured.
type tracedPass struct {
	queries                        []tracedQuery
	checkpoints, recovers, decodes []time.Duration
	attempted, failed              int
	firstErr                       error
	cyclesDone                     int
}

// runTraced replays the first operations of client 0's sequence one at
// a time: each on the real path, untraced, and then — for queries —
// stage by stage through the stager, whose answer must match the oracle
// too. It stops after tracedOps operations or when the time budget is
// spent, at a cycle boundary.
func runTraced(w workload, s sut, st *stager, seconds float64) *tracedPass {
	p := &tracedPass{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	fail := func(err error) {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
	var uniq uint64
	next := func() uint64 { uniq++; return uniq }
	opIdx := 0
	for i := 0; opIdx < tracedOps && (i == 0 || time.Now().Before(deadline)); i++ {
		if max := w.maxCycles(); max > 0 && i >= max {
			break
		}
		ops := w.cycle(0, i)
		for k := range ops {
			o := &ops[k]
			opIdx++
			p.attempted++
			if o.kind == opQuery {
				// Whichever path runs second inherits the first one's
				// garbage and warm caches; alternating the order keeps
				// that out of the paired differences.
				q, err := traceQuery(w, s, st, o, opIdx, len(p.queries)%2 == 1, next)
				if err != nil {
					fail(err)
					continue
				}
				p.queries = append(p.queries, q)
				continue
			}
			start := time.Now()
			_, _, err := s.exec(0, o, next())
			wall := time.Since(start)
			if err != nil {
				fail(err)
				continue
			}
			switch o.kind {
			case opInsert:
				if err := appendRows(st.cat, "orders", o.rows); err != nil {
					fail(err)
				}
			case opCheckpoint:
				p.checkpoints = append(p.checkpoints, wall)
				// The checkpoint packed the table into a segment that
				// later queries reuse; give the stager's copy the same.
				if t, err := st.cat.Table("orders"); err == nil {
					t.Segment()
				}
			case opReopen:
				p.recovers = append(p.recovers, wall)
				if t, err := st.cat.Table("orders"); err == nil {
					seg := t.Segment()
					id := st.rec.begin("storage.decode", -1, opIdx)
					seg.Relation()
					st.rec.end(id)
					p.decodes = append(p.decodes, st.rec.spans[id].dur())
				}
			}
		}
		p.cyclesDone++
	}
	return p
}

// traceQuery measures one query on the real path and replays it through
// the stager, in either order; both answers are checked.
func traceQuery(w workload, s sut, st *stager, o *op, opIdx int, stagedFirst bool, next func() uint64) (tracedQuery, error) {
	q := tracedQuery{class: o.class}
	check := func(got expect) error {
		if o.key == "" {
			return nil
		}
		return w.orc().check(o.key, got)
	}
	replay := func() error {
		var err error
		if q.st, err = st.query(opIdx, o.text(next())); err == nil {
			err = check(digest(q.st.rows))
		}
		if err != nil {
			return fmt.Errorf("staged replay: %w", err)
		}
		return nil
	}
	real := func() error {
		got, lat, err := s.exec(0, o, next())
		if err == nil {
			err = check(got)
		}
		if err != nil {
			return err
		}
		q.real = lat
		if h, ok := s.(*httpSUT); ok {
			if q.handler, err = h.viaHandler(o, next()); err == nil {
				q.direct, err = h.direct(o, next())
			}
		}
		return err
	}
	first, second := real, replay
	if stagedFirst {
		first, second = replay, real
	}
	if err := first(); err != nil {
		return q, err
	}
	return q, second()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// medianOr0 is the median, or 0 when the stage never ran.
func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
