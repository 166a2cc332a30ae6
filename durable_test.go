package gmdj

import (
	"errors"
	"syscall"
	"testing"
)

// TestCloseFlushesAcknowledgedInserts: a clean Close is not a crash. An
// insert that returned is on disk after Close with no query or
// Checkpoint in between; when the flush cannot be written, Close says
// so and the generation committed before is what the next open finds.
func TestCloseFlushesAcknowledgedInserts(t *testing.T) {
	dir := t.TempDir()
	count := func(db *DB) int {
		t.Helper()
		res, err := db.Query(`SELECT k FROM kv`)
		if err != nil {
			t.Fatal(err)
		}
		return res.Len()
	}

	db := Open(WithDataDir(dir))
	db.MustCreateTable("kv", Col("k", Int), Col("v", String))
	db.MustInsert("kv", []any{int64(1), "one"}, []any{int64(2), "two"})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = Open(WithDataDir(dir))
	if n := count(db); n != 2 {
		t.Fatalf("%d rows after insert, close, reopen; want 2", n)
	}
	gen := db.StorageStats().Generation
	db.Close()

	t.Setenv("GMDJ_FAULTS", "storage.write=enospc")
	db = Open(WithDataDir(dir))
	db.MustInsert("kv", []any{int64(3), "three"})
	if err := db.Close(); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Close over a full disk returned %v, want ENOSPC", err)
	}
	t.Setenv("GMDJ_FAULTS", "")
	db = Open(WithDataDir(dir))
	defer db.Close()
	if rep := db.Recovery(); rep.Generation != gen || len(rep.Quarantined) != 0 {
		t.Fatalf("after the failed flush: recovered %+v, want generation %d intact", rep, gen)
	}
	if n := count(db); n != 2 {
		t.Fatalf("%d rows after the failed flush, want the 2 committed before", n)
	}
}
