package gmdj

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func usersDB(t *testing.T, opts ...Option) *DB {
	t.Helper()
	db := Open(opts...)
	t.Cleanup(func() { db.Close() })
	db.MustCreateTable("users",
		Col("name", String), Col("ip", String), Col("score", Int))
	db.MustInsert("users",
		[]any{"ann", "10.0.0.1", int64(10)},
		[]any{"bob", "10.0.0.2", int64(20)},
		[]any{"cat", "10.0.0.1", int64(30)},
	)
	return db
}

func TestPrepareQuestionMarks(t *testing.T) {
	db := usersDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE ip = ? AND score > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if got := stmt.NumParams(); got != 2 {
		t.Fatalf("NumParams = %d, want 2", got)
	}
	res, err := stmt.Query("10.0.0.1", 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "cat" {
		t.Fatalf("got %v, want [[cat]]", res.Rows)
	}
	// Rebind: same plan, different constants.
	res, err = stmt.Query("10.0.0.1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rebind got %d rows, want 2", res.Len())
	}
}

func TestPrepareDollarOrdinalsReuse(t *testing.T) {
	db := usersDB(t)
	// $1 used twice: one argument feeds both sites.
	stmt, err := db.Prepare(`SELECT name FROM users WHERE ip = $1 OR name = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if got := stmt.NumParams(); got != 1 {
		t.Fatalf("NumParams = %d, want 1", got)
	}
	res, err := stmt.Query("bob")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "bob" {
		t.Fatalf("got %v, want [[bob]]", res.Rows)
	}
}

func TestPrepareMixedPlaceholdersRejected(t *testing.T) {
	db := usersDB(t)
	if _, err := db.Prepare(`SELECT name FROM users WHERE ip = ? AND name = $1`); err == nil {
		t.Fatal("mixing ? and $n placeholders should fail")
	}
}

func TestPrepareArgErrors(t *testing.T) {
	db := usersDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE score > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Query(); !errors.Is(err, ErrBadParam) {
		t.Fatalf("missing arg: err = %v, want ErrBadParam", err)
	}
	if _, err := stmt.Query(1, 2); !errors.Is(err, ErrBadParam) {
		t.Fatalf("extra arg: err = %v, want ErrBadParam", err)
	}
	if _, err := stmt.Query(struct{}{}); !errors.Is(err, ErrBadParam) {
		t.Fatalf("bad type: err = %v, want ErrBadParam", err)
	}
}

func TestPrepareInSubquery(t *testing.T) {
	db := usersDB(t)
	db.MustCreateTable("flows", Col("src", String), Col("bytes", Int))
	db.MustInsert("flows",
		[]any{"10.0.0.1", int64(100)},
		[]any{"10.0.0.2", int64(5000)},
	)
	stmt, err := db.Prepare(`SELECT u.name FROM users u WHERE EXISTS (
		SELECT * FROM flows f WHERE f.src = u.ip AND f.bytes > ?)`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	res, err := stmt.Query(1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "bob" {
		t.Fatalf("got %v, want [[bob]]", res.Rows)
	}
	res, err = stmt.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("got %d rows, want 3", res.Len())
	}
}

func TestPrepareSurvivesCatalogChange(t *testing.T) {
	db := usersDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE score > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if _, err := stmt.Query(0); err != nil {
		t.Fatal(err)
	}
	// A write bumps the schema epoch; the next Query must recompile and
	// see the new row.
	db.MustInsert("users", []any{"dan", "10.0.0.3", int64(40)})
	res, err := stmt.Query(35)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != "dan" {
		t.Fatalf("after insert got %v, want [[dan]]", res.Rows)
	}
}

func TestPrepareClosed(t *testing.T) {
	db := usersDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE score > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatal("Close is not idempotent")
	}
	if _, err := stmt.Query(0); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Query on closed stmt: err = %v", err)
	}
}

func TestPrepareConcurrentQuery(t *testing.T) {
	db := usersDB(t)
	stmt, err := db.Prepare(`SELECT name FROM users WHERE score > ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := stmt.Query(10 * (i % 3))
				if err != nil {
					errs <- err
					return
				}
				if res.Len() == 0 {
					errs <- fmt.Errorf("goroutine %d: empty result", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestQueryRejectsBarePlaceholders(t *testing.T) {
	db := usersDB(t)
	if _, err := db.Query(`SELECT name FROM users WHERE score > ?`); !errors.Is(err, ErrBadParam) {
		t.Fatalf("err = %v, want ErrBadParam", err)
	}
}
