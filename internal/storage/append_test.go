package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

// Tests of the append path: a table is a list of segment files over
// consecutive row ranges and a checkpoint writes only the tail.

func logSchema(name string) *relation.Schema {
	return relation.NewSchema(
		relation.Column{Qualifier: name, Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: name, Name: "g", Type: value.KindInt},
		relation.Column{Qualifier: name, Name: "note", Type: value.KindString},
		relation.Column{Qualifier: name, Name: "f", Type: value.KindFloat},
	)
}

// appendLog appends n NULL-dense rows with the next keys, as an INSERT
// does: rows first, then the version.
func appendLog(tab *Table, rng *rand.Rand, n int) {
	for i := 0; i < n; i++ {
		row := relation.Tuple{value.Int(int64(tab.Rel.Len())), value.Null, value.Null, value.Null}
		if rng.Intn(3) > 0 {
			row[1] = value.Int(int64(rng.Intn(8)))
		}
		if rng.Intn(2) > 0 {
			row[2] = value.Str(fmt.Sprintf("n%d", rng.Intn(40)))
		}
		if rng.Intn(3) > 0 {
			row[3] = value.Float(float64(rng.Intn(1000)) / 4)
		}
		tab.Rel.Append(row)
	}
	tab.BumpVersion()
}

func newLog(name string, rng *rand.Rand, rows int) *Table {
	tab := NewTable(name, relation.New(logSchema(name)))
	appendLog(tab, rng, rows)
	return tab
}

func mustCheckpoint(t *testing.T, ds *DiskStore, cat *Catalog) uint64 {
	t.Helper()
	gen, err := ds.Checkpoint(cat)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func mustRecover(t *testing.T, dir string) (*Catalog, *RecoveryReport) {
	t.Helper()
	cat := NewCatalog()
	rep, err := mustOpen(t, dir, nil).Recover(cat)
	if err != nil {
		t.Fatal(err)
	}
	return cat, rep
}

// recoveredEqual opens dir afresh and checks that what recovers is what
// cat holds: the same tables, none quarantined, the same rows.
func recoveredEqual(t *testing.T, dir string, cat *Catalog) {
	t.Helper()
	got, rep := mustRecover(t, dir)
	if len(rep.Quarantined) != 0 {
		t.Fatalf("recovery quarantined %+v", rep.Quarantined)
	}
	if fmt.Sprint(got.Names()) != fmt.Sprint(cat.Names()) {
		t.Fatalf("recovered tables %v, in memory %v", got.Names(), cat.Names())
	}
	for _, name := range cat.Names() {
		want, _ := cat.Table(name)
		have, _ := got.Table(name)
		if d := want.Rel.Diff(have.Rel); d != "" {
			t.Fatalf("table %s: recovered rows differ from memory: %s", name, d)
		}
	}
}

func filesOf(ds *DiskStore, table string) []segmentFile { return ds.state[table].entry.Files }

func exists(dir, file string) bool {
	_, err := os.Stat(filepath.Join(dir, file))
	return err == nil
}

// TestAppendCheckpointBounds: the logarithmic method's two bounds, on
// the benchmark's shape — 160 appends of 500 rows to a 150 000-row
// preload. Beside the preload's file, which is never rewritten, the
// table has at most 1 + ⌈log₂ appends⌉ files after any append, and the
// appended rows are written at most five times each in total.
func TestAppendCheckpointBounds(t *testing.T) {
	const preload, batch, appends = 150_000, 500, 160
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	cat := NewCatalog()
	tab := newLog("log", rng, preload)
	cat.Register(tab)
	ds := mustOpen(t, dir, nil)
	mustCheckpoint(t, ds, cat)
	first := filesOf(ds, "log")[0]
	seen := map[string]bool{first.File: true}
	written, peak := uint64(0), 0
	for i := 1; i <= appends; i++ {
		appendLog(tab, rng, batch)
		mustCheckpoint(t, ds, cat)
		files := filesOf(ds, "log")
		if files[0] != first {
			t.Fatalf("append %d rewrote the preload: %v", i, files[0])
		}
		fresh := 0
		for _, f := range files {
			if !seen[f.File] {
				seen[f.File] = true
				written += f.Rows
				fresh++
			}
		}
		if fresh != 1 {
			t.Fatalf("append %d wrote %d files, want 1", i, fresh)
		}
		beside := len(files) - 1
		peak = max(peak, beside)
		if bound := 1 + int(math.Ceil(math.Log2(float64(i)))); beside > bound {
			t.Fatalf("after %d appends: %d files beside the preload's, bound %d: %v", i, beside, bound, files)
		}
	}
	if written > 5*appends*batch {
		t.Fatalf("%d appended rows were written %d times in all (%.1f each), bound 5", appends*batch, written, float64(written)/(appends*batch))
	}
	t.Logf("peak %d files beside the preload's; each appended row written %.2f times", peak, float64(written)/(appends*batch))
	got, _ := mustRecover(t, dir)
	have, _ := got.Table("log")
	relsIdentical(t, "log", have.Rel, tab.Rel)
}

// TestAppendRecoversEveryStep: after every append and checkpoint, of
// whatever size, a fresh open recovers exactly the rows in memory.
func TestAppendRecoversEveryStep(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(7))
	cat := NewCatalog()
	tab := newLog("log", rng, 3000)
	cat.Register(tab)
	cat.Register(newLog("still", rng, 10))
	ds := mustOpen(t, dir, nil)
	for i := 0; i < 48; i++ {
		mustCheckpoint(t, ds, cat)
		recoveredEqual(t, dir, cat)
		appendLog(tab, rng, []int{1, 17, 300, ZoneBlockRows, 2500}[rng.Intn(5)])
	}
	if n := len(filesOf(ds, "still")); n != 1 {
		t.Fatalf("the table nobody wrote to has %d files", n)
	}
}

// TestAppendIndexOnlyBumpWritesNothing: an index change moves the
// table's version but none of its rows — no file, no generation, and
// the store records the version so it does not look again.
func TestAppendIndexOnlyBumpWritesNothing(t *testing.T) {
	dir := t.TempDir()
	cat := NewCatalog()
	tab := newLog("log", rand.New(rand.NewSource(2)), 100)
	cat.Register(tab)
	ds := mustOpen(t, dir, nil)
	gen := mustCheckpoint(t, ds, cat)
	before, _ := os.ReadDir(dir)
	if err := tab.BuildHashIndex("k"); err != nil {
		t.Fatal(err)
	}
	if got := mustCheckpoint(t, ds, cat); got != gen {
		t.Fatalf("an index change committed generation %d", got)
	}
	after, _ := os.ReadDir(dir)
	if len(after) != len(before) || ds.Stats(cat).SegmentsWritten != 1 {
		t.Fatalf("an index change wrote to the directory: %d files, were %d", len(after), len(before))
	}
	if ds.state["log"].version != tab.Version() {
		t.Fatal("the store did not record the version it looked at")
	}
}

// TestAppendRecreateRewritesFromRowZero: a table dropped and created
// again under its name is another table, whatever its row count; it is
// written whole, and its predecessor's files go one generation later.
func TestAppendRecreateRewritesFromRowZero(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	cat := NewCatalog()
	tab := newLog("log", rng, 1000)
	cat.Register(tab)
	ds := mustOpen(t, dir, nil)
	mustCheckpoint(t, ds, cat)
	appendLog(tab, rng, 100)
	mustCheckpoint(t, ds, cat)
	old := filesOf(ds, "log")
	if len(old) != 2 {
		t.Fatalf("setup: %v", old)
	}

	cat.Drop("log")
	again := newLog("log", rng, 1500) // more rows than before: only the id says it is not an append
	cat.Register(again)
	mustCheckpoint(t, ds, cat)
	if now := filesOf(ds, "log"); len(now) != 1 || now[0].Rows != 1500 {
		t.Fatalf("re-created table persisted as %v, want one file of 1500 rows", now)
	}
	recoveredEqual(t, dir, cat)
	for _, f := range old {
		if !exists(dir, f.File) {
			t.Fatalf("%s collected while the previous generation still names it", f.File)
		}
	}
	appendLog(again, rng, 1)
	mustCheckpoint(t, ds, cat)
	for _, f := range old {
		if exists(dir, f.File) {
			t.Fatalf("%s survives two generations after its table was dropped", f.File)
		}
	}
	recoveredEqual(t, dir, cat)
}

// TestAppendWriteFaultRepacksSameTail: a failed write of the tail file
// leaves the previous generation the committed one, files and all, and
// the next checkpoint packs the same tail again. A torn write reports
// success; then it is recovery that finds the file, quarantines the
// table, and the generation before still holds every row it had.
func TestAppendWriteFaultRepacksSameTail(t *testing.T) {
	for _, action := range []string{"enospc", "shortwrite", "torn"} {
		t.Run(action, func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(4))
			cat := NewCatalog()
			tab := newLog("log", rng, 2000)
			cat.Register(tab)
			ds := mustOpen(t, dir, nil)
			mustCheckpoint(t, ds, cat)
			appendLog(tab, rng, 300)
			mustCheckpoint(t, ds, cat)
			committed := tab.Rel.Len()
			appendLog(tab, rng, 100)

			ds.SetFaults(mustFaults(t, SiteWrite+"="+action))
			gen, err := ds.Checkpoint(cat)
			ds.SetFaults(nil)
			if action == "torn" {
				if err != nil || gen != 3 {
					t.Fatalf("torn write: gen=%d err=%v, want a commit that looks clean", gen, err)
				}
				got, rep := mustRecover(t, dir)
				if len(rep.Quarantined) != 1 || rep.Quarantined[0].File != filesOf(ds, "log")[2].File {
					t.Fatalf("recovery over a torn tail quarantined %+v", rep.Quarantined)
				}
				if q, _ := got.Table("log"); q.Rel.Len() != 0 {
					t.Fatalf("a quarantined table serves %d rows", q.Rel.Len())
				}
				if err := os.Remove(filepath.Join(dir, manifestName(3))); err != nil {
					t.Fatal(err)
				}
				got, rep = mustRecover(t, dir)
				if have, _ := got.Table("log"); rep.Generation != 2 || len(rep.Quarantined) != 0 || have.Rel.Len() != committed {
					t.Fatalf("the generation before the torn one: gen=%d quarantined=%+v rows=%d", rep.Generation, rep.Quarantined, have.Rel.Len())
				}
				return
			}
			if err == nil || gen != 2 {
				t.Fatalf("checkpoint under %s: gen=%d err=%v", action, gen, err)
			}
			got, rep := mustRecover(t, dir)
			if have, _ := got.Table("log"); rep.Generation != 2 || len(rep.Quarantined) != 0 || have.Rel.Len() != committed {
				t.Fatalf("after the failed checkpoint: gen=%d quarantined=%+v rows=%d, want 2, none, %d", rep.Generation, rep.Quarantined, have.Rel.Len(), committed)
			}
			mustCheckpoint(t, ds, cat)
			if files := filesOf(ds, "log"); len(files) != 3 || files[2].Rows != 100 {
				t.Fatalf("the checkpoint after the fault wrote %v, want the same 100-row tail", files)
			}
			recoveredEqual(t, dir, cat)
		})
	}
}

// TestAppendCorruptFileQuarantinesTable: one bad file of three takes
// the whole table out — a table with a hole in its rows answers nothing
// correctly — all three entries are carried forward and survive GC, and
// re-creating the table heals it.
func TestAppendCorruptFileQuarantinesTable(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	cat := NewCatalog()
	tab := newLog("log", rng, 4000)
	cat.Register(tab)
	other := newLog("other", rng, 5)
	cat.Register(other)
	ds := mustOpen(t, dir, nil)
	mustCheckpoint(t, ds, cat)
	for _, n := range []int{1000, 400} {
		appendLog(tab, rng, n)
		mustCheckpoint(t, ds, cat)
	}
	files := filesOf(ds, "log")
	if len(files) != 3 {
		t.Fatalf("setup: %v", files)
	}
	middle := filepath.Join(dir, files[1].File)
	data, err := os.ReadFile(middle)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(middle, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2 := NewCatalog()
	ds2 := mustOpen(t, dir, nil)
	rep, err := ds2.Recover(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Table != "log" || rep.Quarantined[0].File != files[1].File {
		t.Fatalf("quarantined %+v, want log for %s", rep.Quarantined, files[1].File)
	}
	q, _ := cat2.Table("log")
	if err := q.CheckQuarantine(); !errors.Is(err, ErrSegmentCorrupt) || q.Rel.Len() != 0 {
		t.Fatalf("quarantined table: err=%v rows=%d", err, q.Rel.Len())
	}
	// Two generations on, the three files are still named and still there.
	o2, _ := cat2.Table("other")
	for i := 0; i < 2; i++ {
		appendLog(o2, rng, 1)
		mustCheckpoint(t, ds2, cat2)
	}
	if now := filesOf(ds2, "log"); fmt.Sprint(now) != fmt.Sprint(files) {
		t.Fatalf("quarantined table's entry became %v, was %v", now, files)
	}
	for _, f := range files {
		if !exists(dir, f.File) {
			t.Fatalf("GC collected %s from under a quarantined table", f.File)
		}
	}
	cat2.Register(newLog("log", rng, 50))
	mustCheckpoint(t, ds2, cat2)
	recoveredEqual(t, dir, cat2)
}

// TestAppendTornManifestFallsBack: the previous generation stays whole
// on disk — the files the newest one folded away included — so tearing
// the newest manifest costs one generation and nothing else.
func TestAppendTornManifestFallsBack(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(6))
	cat := NewCatalog()
	tab := newLog("log", rng, 5000)
	cat.Register(tab)
	ds := mustOpen(t, dir, nil)
	mustCheckpoint(t, ds, cat)
	for i := 0; i < 3; i++ {
		appendLog(tab, rng, 100)
		mustCheckpoint(t, ds, cat)
	}
	before, rows := filesOf(ds, "log"), tab.Rel.Len()
	appendLog(tab, rng, 100)
	gen := mustCheckpoint(t, ds, cat)
	if after := filesOf(ds, "log"); len(before) != 3 || len(after) != 2 {
		t.Fatalf("setup: the fourth append should fold the two files before it: %v then %v", before, after)
	}
	if err := os.Truncate(filepath.Join(dir, manifestName(gen)), 9); err != nil {
		t.Fatal(err)
	}
	got, rep := mustRecover(t, dir)
	have, _ := got.Table("log")
	if rep.Generation != gen-1 || rep.SkippedManifests != 1 || len(rep.Quarantined) != 0 || have.Rel.Len() != rows {
		t.Fatalf("fallback: gen=%d skipped=%d quarantined=%+v rows=%d, want %d, 1, none, %d",
			rep.Generation, rep.SkippedManifests, rep.Quarantined, have.Rel.Len(), gen-1, rows)
	}
}

// TestAppendOverManifestV1Directory: a directory as the previous
// format's commit wrote it — the committed fixture manifest and the two
// one-file tables it names — recovers, and the next checkpoint appends
// to those files as to any others.
func TestAppendOverManifestV1Directory(t *testing.T) {
	dir := t.TempDir()
	v1, err := os.ReadFile("testdata/manifest_v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	want := testCatalog(t, 250)
	small, _ := want.Table("small")
	tricky, _ := want.Table("tricky")
	for name, data := range map[string][]byte{
		manifestName(7):  v1,
		"small-7-0.seg":  encodeSegment(BuildSegment("small", small.Rel)),
		"tricky-3-1.seg": encodeSegment(BuildSegment("tricky", tricky.Rel)),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recoveredEqual(t, dir, want)

	cat := NewCatalog()
	ds := mustOpen(t, dir, nil)
	if rep, err := ds.Recover(cat); err != nil || rep.Generation != 7 {
		t.Fatalf("gen=%d err=%v", rep.Generation, err)
	}
	got, _ := cat.Table("small")
	got.Rel.Append(relation.Tuple{value.Int(3), value.Str("three")})
	got.BumpVersion()
	if gen := mustCheckpoint(t, ds, cat); gen != 8 {
		t.Fatalf("committed generation %d, want 8", gen)
	}
	if files := filesOf(ds, "small"); len(files) != 2 || files[0].File != "small-7-0.seg" {
		t.Fatalf("small after an append: %v", files)
	}
	recoveredEqual(t, dir, cat)
}

// TestAppendRandomInterleavings drives inserts, checkpoints, clean and
// unclean reopens, index changes and drop + re-create in seeded random
// order against an in-memory oracle: what a reopen recovers is always
// what the last successful checkpoint saw.
func TestAppendRandomInterleavings(t *testing.T) {
	names := []string{"a", "b", "c"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		cat := NewCatalog()
		ds := mustOpen(t, dir, nil)
		// durable is the oracle: each table's rows as of the last
		// checkpoint. Rows are only appended, so a slice header is a snapshot.
		durable := map[string][]relation.Tuple{}
		checkpoint := func() {
			mustCheckpoint(t, ds, cat)
			durable = map[string][]relation.Tuple{}
			for _, n := range cat.Names() {
				tab, _ := cat.Table(n)
				durable[n] = tab.Rel.Rows
			}
		}
		for step := 0; step < 200; step++ {
			name := names[rng.Intn(len(names))]
			tab, err := cat.Table(name)
			switch op := rng.Intn(10); {
			case err != nil || op == 0: // create, or drop and create again
				cat.Drop(name)
				cat.Register(newLog(name, rng, rng.Intn(60)))
			case op <= 4:
				appendLog(tab, rng, 1+rng.Intn([]int{5, 80, 1500}[rng.Intn(3)]))
			case op <= 6:
				checkpoint()
			case op == 7:
				if rng.Intn(2) == 0 {
					_ = tab.BuildSortedIndex("k")
				} else {
					tab.DropIndexes()
				}
			default: // reopen: half the time cleanly, checkpointing first
				if op == 8 {
					checkpoint()
				}
				cat = NewCatalog()
				ds = mustOpen(t, dir, nil)
				rep, err := ds.Recover(cat)
				if err != nil || len(rep.Quarantined) != 0 {
					t.Fatalf("seed %d step %d: recovery: %v %+v", seed, step, err, rep)
				}
				if len(cat.Names()) != len(durable) {
					t.Fatalf("seed %d step %d: recovered %v, the last checkpoint saw %d tables", seed, step, cat.Names(), len(durable))
				}
				for n, rows := range durable {
					got, err := cat.Table(n)
					if err != nil {
						t.Fatalf("seed %d step %d: table %s lost", seed, step, n)
					}
					if d := (&relation.Relation{Schema: got.Rel.Schema, Rows: rows}).Diff(got.Rel); d != "" {
						t.Fatalf("seed %d step %d: table %s: %s", seed, step, n, d)
					}
				}
			}
		}
	}
}

// TestTableAppendChecksBeforeMutating: Append validates the whole
// batch against the schema, then appends and bumps once; a rejected
// batch moves neither the rows, the version nor the write epoch.
func TestTableAppendChecksBeforeMutating(t *testing.T) {
	cat := NewCatalog()
	tab := NewTable("t", relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "i", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "f", Type: value.KindFloat},
	)))
	cat.Register(tab)
	good := relation.Tuple{value.Int(1), value.Int(2)} // INT widens into FLOAT
	for name, bad := range map[string]relation.Tuple{
		"kind":           {value.Str("x"), value.Float(1)},
		"width":          {value.Int(1)},
		"float into int": {value.Float(1), value.Null},
	} {
		version, epoch := tab.Version(), cat.WriteEpoch()
		if err := tab.Append([]relation.Tuple{good, bad}); err == nil {
			t.Errorf("%s: batch with a bad second row accepted", name)
		}
		if tab.Rel.Len() != 0 || tab.Version() != version || cat.WriteEpoch() != epoch {
			t.Errorf("%s: rejected batch left %d rows, version %d → %d, write epoch %d → %d",
				name, tab.Rel.Len(), version, tab.Version(), epoch, cat.WriteEpoch())
		}
	}
	version := tab.Version()
	if err := tab.Append(nil); err != nil || tab.Version() != version {
		t.Errorf("empty batch: err %v, version %d → %d", err, version, tab.Version())
	}
	if err := tab.Append([]relation.Tuple{good, {value.Null, value.Null}}); err != nil {
		t.Fatal(err)
	}
	if tab.Rel.Len() != 2 || tab.Version() != version+1 {
		t.Errorf("accepted batch: %d rows, version %d → %d, want 2 rows and one bump", tab.Rel.Len(), version, tab.Version())
	}
	if f := tab.Rel.Rows[0][1]; f.Kind() != value.KindFloat || f.AsFloat() != 2 {
		t.Errorf("INT 2 into a FLOAT column stored as %v", f)
	}
}

// columnsMatch checks every column's vector over the rows a reader
// holds against those rows, cell for cell.
func columnsMatch(t *testing.T, what string, tab *Table, rows []relation.Tuple) {
	t.Helper()
	for c := range tab.Rel.Schema.Columns {
		v := tab.Column(c, rows)
		if v.Len() != len(rows) {
			t.Fatalf("%s: column %d covers %d rows, the reader holds %d", what, c, v.Len(), len(rows))
		}
		for i, row := range rows {
			if !cellIdentical(v.Value(i), row[c]) {
				t.Fatalf("%s: column %d row %d: vector %v, row %v", what, c, i, v.Value(i), row[c])
			}
		}
	}
}

// TestTableColumnCatchesUp: a table's typed vectors follow its rows —
// after Table.Append, after a direct Rel.Append and BumpVersion, after
// recovery, and when a column's kind changes partway — extended, not
// rebuilt: a new version over the same rows hands out the same vector,
// and a reader holding an older snapshot sees its own rows only.
func TestTableColumnCatchesUp(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat := NewCatalog()
	tab := newLog("log", rng, 2*ZoneBlockRows+5)
	cat.Register(tab)
	columnsMatch(t, "built", tab, tab.Rel.Rows)
	old := tab.Rel.Rows
	held := tab.Column(3, old)
	tab.BumpVersion() // an index change: a new version, no new row
	if tab.Column(3, tab.Rel.Rows) != held {
		t.Fatal("a new version over the same rows rebuilt the vector")
	}

	if err := tab.Append([]relation.Tuple{{value.Int(-1), value.Int(2), value.Str("x"), value.Int(3)}}); err != nil {
		t.Fatal(err)
	}
	columnsMatch(t, "after Table.Append", tab, tab.Rel.Rows)
	appendLog(tab, rng, 700)
	columnsMatch(t, "after Rel.Append and BumpVersion", tab, tab.Rel.Rows)

	// g (INT so far) takes a STRING, f a BOOL: both are boxed from here.
	tab.Rel.Append(relation.Tuple{value.Int(0), value.Str("g"), value.Null, value.Bool(true)})
	appendLog(tab, rng, 3)
	columnsMatch(t, "after a kind change", tab, tab.Rel.Rows)
	if tab.Column(1, tab.Rel.Rows).Boxed == nil {
		t.Fatal("a column of two kinds is not boxed")
	}
	columnsMatch(t, "an older snapshot", tab, old)
	if held.Len() != len(old) || held.Kind != value.KindFloat {
		t.Fatalf("a held vector changed: %d rows of %v", held.Len(), held.Kind)
	}

	dir := t.TempDir()
	mustCheckpoint(t, mustOpen(t, dir, nil), cat)
	got, _ := mustRecover(t, dir)
	rec, err := got.Table("log")
	if err != nil {
		t.Fatal(err)
	}
	columnsMatch(t, "after recovery", rec, rec.Rel.Rows)
	appendLog(rec, rng, 9)
	columnsMatch(t, "an append after recovery", rec, rec.Rel.Rows)
}

// TestColumnReaderKeepsVectorAcrossExtend (for -race): readers hold the
// vectors Column gave them outside the table's lock, and scan them while
// a writer appends rows and extends the vectors; extending must write
// only past what any reader holds.
func TestColumnReaderKeepsVectorAcrossExtend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := newLog("log", rng, 500)
	rows := tab.Rel.Rows
	held := make([]*relation.ColVec, tab.Rel.Schema.Len())
	for c := range held {
		held[c] = tab.Column(c, rows)
	}
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
				for c, v := range held {
					for i, row := range rows {
						if !cellIdentical(v.Value(i), row[c]) {
							t.Errorf("column %d row %d changed under a reader", c, i)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		appendLog(tab, rng, 1+rng.Intn(40))
		tab.Column(rng.Intn(len(held)), tab.Rel.Rows)
	}
	close(done)
	wg.Wait()
	columnsMatch(t, "after the appends", tab, tab.Rel.Rows)
}
