package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/value"
)

func testCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	cat := NewCatalog()
	cat.Register(NewTable("tricky", trickyRel(rows)))
	small := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "s", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "s", Name: "v", Type: value.KindString},
	))
	small.Append(relation.Tuple{value.Int(1), value.Str("one")})
	small.Append(relation.Tuple{value.Int(2), value.Str("two")})
	cat.Register(NewTable("small", small))
	return cat
}

func mustOpen(t *testing.T, dir string, faults *govern.Injector) *DiskStore {
	t.Helper()
	ds, err := OpenDiskStore(dir, faults)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mustFaults(t *testing.T, spec string) *govern.Injector {
	t.Helper()
	in, err := govern.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func relsIdentical(t *testing.T, name string, got, want *relation.Relation) {
	t.Helper()
	if !got.Schema.Equal(want.Schema) {
		t.Fatalf("table %s: schema mismatch", name)
	}
	if got.Len() != want.Len() {
		t.Fatalf("table %s: %d rows, want %d", name, got.Len(), want.Len())
	}
	for i := range want.Rows {
		for c := range want.Rows[i] {
			if !cellIdentical(got.Rows[i][c], want.Rows[i][c]) {
				t.Fatalf("table %s cell (%d,%d): got %v want %v", name, i, c, got.Rows[i][c], want.Rows[i][c])
			}
		}
	}
}

func TestDiskStoreCheckpointRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 2*ZoneBlockRows+31)
	ds := mustOpen(t, dir, nil)
	gen, err := ds.Checkpoint(cat)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first checkpoint committed generation %d, want 1", gen)
	}

	cat2 := NewCatalog()
	ds2 := mustOpen(t, dir, nil)
	rep, err := ds2.Recover(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 || len(rep.Quarantined) != 0 || rep.SkippedManifests != 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("recovered tables %v", rep.Tables)
	}
	for _, name := range cat.Names() {
		want, _ := cat.Table(name)
		got, err := cat2.Table(name)
		if err != nil {
			t.Fatalf("table %s missing after recovery", name)
		}
		relsIdentical(t, name, got.Rel, want.Rel)
	}
}

func TestDiskStoreSkipsUnchangedTables(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 100)
	ds := mustOpen(t, dir, nil)
	if _, err := ds.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, s := range ds.Segments(cat) {
		if len(s.Files) != 1 {
			t.Fatalf("first checkpoint wrote %s as %v, want one file", s.Table, s.Files)
		}
		files[s.Table] = s.Files[0]
	}

	// Nothing changed: no new generation, no new segment writes.
	written := ds.Stats(cat).SegmentsWritten
	gen, err := ds.Checkpoint(cat)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("no-op checkpoint advanced to generation %d", gen)
	}
	if w := ds.Stats(cat).SegmentsWritten; w != written {
		t.Fatalf("no-op checkpoint wrote %d segments", w-written)
	}

	// Append one row to the two-row table: its file stays and a second,
	// holding that row, joins it; the other table keeps its file.
	small, _ := cat.Table("small")
	small.Rel.Append(relation.Tuple{value.Int(3), value.Str("three")})
	small.BumpVersion()
	if gen, err = ds.Checkpoint(cat); err != nil || gen != 2 {
		t.Fatalf("gen=%d err=%v", gen, err)
	}
	if w := ds.Stats(cat).SegmentsWritten; w != written+1 {
		t.Fatalf("a one-row append wrote %d segments, want 1", w-written)
	}
	for _, s := range ds.Segments(cat) {
		switch s.Table {
		case "small":
			if len(s.Files) != 2 || s.Files[0] != files["small"] {
				t.Fatalf("small is %v after the append, want %s and one new file", s.Files, files["small"])
			}
			if s.Rows != 3 {
				t.Fatalf("small re-persisted with %d rows", s.Rows)
			}
		case "tricky":
			if len(s.Files) != 1 || s.Files[0] != files["tricky"] {
				t.Fatal("clean table was rewritten")
			}
		}
	}
	recoveredEqual(t, dir, cat)
}

func TestDiskStoreRecoverQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 600)
	ds := mustOpen(t, dir, nil)
	if _, err := ds.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	var trickyFile string
	for _, s := range ds.Segments(cat) {
		if s.Table == "tricky" {
			trickyFile = s.Files[0]
		}
	}
	path := filepath.Join(dir, trickyFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cat2 := NewCatalog()
	ds2 := mustOpen(t, dir, nil)
	rep, err := ds2.Recover(cat2)
	if err != nil {
		t.Fatalf("recovery must not fail on a corrupt segment: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Table != "tricky" {
		t.Fatalf("quarantined %+v, want exactly tricky", rep.Quarantined)
	}
	if len(rep.Tables) != 1 || rep.Tables[0] != "small" {
		t.Fatalf("intact tables %v, want [small]", rep.Tables)
	}
	// The quarantined table exists with its schema and a typed error.
	tab, err := cat2.Table("tricky")
	if err != nil {
		t.Fatal("quarantined table must still be registered")
	}
	if err := tab.CheckQuarantine(); !errors.Is(err, ErrSegmentCorrupt) {
		t.Fatalf("CheckQuarantine = %v, want ErrSegmentCorrupt", err)
	}
	origTricky, _ := cat.Table("tricky")
	if !tab.Rel.Schema.Equal(origTricky.Rel.Schema) {
		t.Fatal("quarantined table lost its schema")
	}
	// The unaffected table recovered intact.
	small, _ := cat2.Table("small")
	orig, _ := cat.Table("small")
	relsIdentical(t, "small", small.Rel, orig.Rel)

	// A checkpoint with the quarantine still in place carries the old
	// entry forward rather than clobbering the only copy of the bytes.
	if _, err := ds2.Checkpoint(cat2); err != nil {
		t.Fatal(err)
	}
	for _, s := range ds2.Segments(cat2) {
		if s.Table == "tricky" {
			if len(s.Files) != 1 || s.Files[0] != trickyFile {
				t.Fatalf("quarantined table's entry rewritten to %v", s.Files)
			}
			if !s.Quarantined {
				t.Fatal("Segments does not report the quarantine")
			}
		}
	}

	// Re-creating the table over its quarantine heals it on the next
	// checkpoint.
	cat2.Register(NewTable("tricky", trickyRel(10)))
	if _, err := ds2.Checkpoint(cat2); err != nil {
		t.Fatal(err)
	}
	cat3 := NewCatalog()
	rep3, err := mustOpen(t, dir, nil).Recover(cat3)
	if err != nil || len(rep3.Quarantined) != 0 {
		t.Fatalf("after heal: err=%v quarantined=%+v", err, rep3.Quarantined)
	}
}

func TestDiskStoreTornManifestFallsBack(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 50)
	ds := mustOpen(t, dir, nil)
	if _, err := ds.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	small, _ := cat.Table("small")
	small.Rel.Append(relation.Tuple{value.Int(9), value.Str("nine")})
	small.BumpVersion()
	if _, err := ds.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	// Tear the newest manifest: recovery must fall back to generation 1
	// and report the skip.
	if err := os.Truncate(filepath.Join(dir, manifestName(2)), 9); err != nil {
		t.Fatal(err)
	}
	cat2 := NewCatalog()
	rep, err := mustOpen(t, dir, nil).Recover(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 1 || rep.SkippedManifests != 1 {
		t.Fatalf("recovered generation %d with %d skips, want 1/1", rep.Generation, rep.SkippedManifests)
	}
	got, _ := cat2.Table("small")
	if got.Rel.Len() != 2 {
		t.Fatalf("fallback generation has %d small rows, want the pre-append 2", got.Rel.Len())
	}
}

func TestDiskStoreWriteFaultLeavesPreviousGeneration(t *testing.T) {
	for _, action := range []string{"enospc", "shortwrite"} {
		t.Run(action, func(t *testing.T) {
			dir := t.TempDir()
			cat := testCatalog(t, 40)
			ds := mustOpen(t, dir, nil)
			if _, err := ds.Checkpoint(cat); err != nil {
				t.Fatal(err)
			}
			small, _ := cat.Table("small")
			small.Rel.Append(relation.Tuple{value.Int(4), value.Str("four")})
			small.BumpVersion()
			ds.SetFaults(mustFaults(t, SiteWrite+"="+action))
			gen, err := ds.Checkpoint(cat)
			if err == nil {
				t.Fatalf("checkpoint under %s fault succeeded", action)
			}
			if gen != 1 {
				t.Fatalf("failed checkpoint reported generation %d, want previous 1", gen)
			}
			// The store on disk is still the clean generation 1.
			cat2 := NewCatalog()
			rep, err := mustOpen(t, dir, nil).Recover(cat2)
			if err != nil || rep.Generation != 1 || len(rep.Quarantined) != 0 {
				t.Fatalf("recovery after failed checkpoint: gen=%d err=%v %+v", rep.Generation, err, rep.Quarantined)
			}
			got, _ := cat2.Table("small")
			if got.Rel.Len() != 2 {
				t.Fatalf("recovered %d small rows, want 2", got.Rel.Len())
			}
			// Clearing the fault lets the same data commit.
			ds.SetFaults(nil)
			if gen, err := ds.Checkpoint(cat); err != nil || gen != 2 {
				t.Fatalf("post-fault checkpoint: gen=%d err=%v", gen, err)
			}
		})
	}
}

func TestDiskStoreManifestFaultAbortsCommit(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 20)
	ds := mustOpen(t, dir, mustFaults(t, SiteManifest+"=enospc"))
	if _, err := ds.Checkpoint(cat); err == nil {
		t.Fatal("manifest write fault did not fail the checkpoint")
	}
	// Nothing committed: a recovery sees a fresh store even though
	// segment files were written (unreachable garbage).
	cat2 := NewCatalog()
	rep, err := mustOpen(t, dir, nil).Recover(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 0 || len(cat2.Names()) != 0 {
		t.Fatalf("uncommitted checkpoint became visible: gen=%d tables=%v", rep.Generation, cat2.Names())
	}
}

func TestDiskStoreDroppedTableLeavesNextGeneration(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 30)
	ds := mustOpen(t, dir, nil)
	if _, err := ds.Checkpoint(cat); err != nil {
		t.Fatal(err)
	}
	cat.Drop("small")
	if gen, err := ds.Checkpoint(cat); err != nil || gen != 2 {
		t.Fatalf("gen=%d err=%v", gen, err)
	}
	cat2 := NewCatalog()
	rep, err := mustOpen(t, dir, nil).Recover(cat2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation != 2 {
		t.Fatalf("recovered generation %d", rep.Generation)
	}
	if _, err := cat2.Table("small"); err == nil {
		t.Fatal("dropped table resurrected by recovery")
	}
	if _, err := cat2.Table("tricky"); err != nil {
		t.Fatal("surviving table lost")
	}
}

func TestDiskStoreGCKeepsTwoGenerations(t *testing.T) {
	dir := t.TempDir()
	cat := testCatalog(t, 25)
	ds := mustOpen(t, dir, nil)
	small, _ := cat.Table("small")
	for i := 0; i < 5; i++ {
		small.Rel.Append(relation.Tuple{value.Int(int64(10 + i)), value.Str("x")})
		small.BumpVersion()
		if _, err := ds.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var manifests []uint64
	for _, e := range entries {
		if gen, ok := parseManifestName(e.Name()); ok {
			manifests = append(manifests, gen)
		}
	}
	if len(manifests) != 2 {
		t.Fatalf("GC kept %d manifests (%v), want current+previous", len(manifests), manifests)
	}
	// Both retained generations must recover.
	for _, truncateNewest := range []bool{false, true} {
		d2 := t.TempDir()
		copyDir(t, dir, d2)
		if truncateNewest {
			if err := os.Truncate(filepath.Join(d2, manifestName(5)), 5); err != nil {
				t.Fatal(err)
			}
		}
		cat2 := NewCatalog()
		rep, err := mustOpen(t, d2, nil).Recover(cat2)
		if err != nil || len(rep.Quarantined) != 0 {
			t.Fatalf("truncateNewest=%v: err=%v quarantined=%+v", truncateNewest, err, rep.Quarantined)
		}
	}
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatalogConcurrentDDL exercises the catalog's lock discipline
// under the race detector: concurrent Register/Drop/Table/Names must
// be safe.
func TestCatalogConcurrentDDL(t *testing.T) {
	cat := NewCatalog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("t%d", g%4)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					cat.Register(NewTable(name, trickyRel(3)))
				case 1:
					if tab, err := cat.Table(name); err == nil {
						_, _ = tab.QuarantineReason()
					}
				case 2:
					_ = cat.Names()
					_ = cat.SchemaEpoch()
				case 3:
					if g%2 == 0 {
						cat.Drop(name)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCheckpointCodedColumns: a table whose STRING columns queries read
// dictionary-coded — one of few strings in insertion order, NULL and ""
// among them, one past relation.MaxDict — checkpoints in two files, an
// append between, and reopens Diff-identical, its columns coded as
// before when read.
func TestCheckpointCodedColumns(t *testing.T) {
	rows := func(from, to int) []relation.Tuple {
		var out []relation.Tuple
		for i := from; i < to; i++ {
			s := value.Str([]string{"b", "a", ""}[i%3])
			if i%5 == 0 {
				s = value.Null
			}
			out = append(out, relation.Tuple{value.Int(int64(i)), s, value.Str(fmt.Sprintf("u%d", i))})
		}
		return out
	}
	tab := NewTable("coded", relation.New(relation.NewSchema(
		relation.Column{Qualifier: "c", Name: "k", Type: value.KindInt},
		relation.Column{Qualifier: "c", Name: "s", Type: value.KindString},
		relation.Column{Qualifier: "c", Name: "u", Type: value.KindString},
	)))
	cat := NewCatalog()
	cat.Register(tab)
	dir := t.TempDir()
	ds := mustOpen(t, dir, nil)
	for _, batch := range [][2]int{{0, 3000}, {3000, relation.MaxDict + 1000}} {
		if err := tab.Append(rows(batch[0], batch[1])); err != nil {
			t.Fatal(err)
		}
		for c := 1; c < 3; c++ {
			tab.Column(c, tab.Rel.Rows)
		}
		if _, err := ds.Checkpoint(cat); err != nil {
			t.Fatal(err)
		}
	}
	cat2 := NewCatalog()
	if _, err := mustOpen(t, dir, nil).Recover(cat2); err != nil {
		t.Fatal(err)
	}
	got, err := cat2.Table("coded")
	if err != nil {
		t.Fatal(err)
	}
	if d := tab.Rel.Diff(got.Rel); d != "" {
		t.Fatalf("reopened table differs: %s", d)
	}
	for c, coded := range []bool{false, true, false} {
		before, after := tab.Column(c, tab.Rel.Rows), got.Column(c, got.Rel.Rows)
		if (before.Dict != nil) != coded || (after.Dict != nil) != coded || coded && !slices.Equal(before.Dict, after.Dict) {
			t.Errorf("column %d: coded %v before, %v after; want %v", c, before.Dict != nil, after.Dict != nil, coded)
		}
	}
}
