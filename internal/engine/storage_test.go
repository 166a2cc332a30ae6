package engine

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// fig4Plan is the paper's Figure 4 quantified-ALL shape over the
// key-pair corpus — the restart round-trip property runs it on both
// sides of a crash.
func fig4Plan() algebra.Node {
	sub := &algebra.Subquery{
		Source: algebra.NewScan("B", "B"),
		Where:  &algebra.Atom{E: expr.NewCmp(value.NE, expr.C("B.b_key"), expr.C("A.a_key"))},
		OutCol: expr.C("B.b_val"),
	}
	return algebra.NewRestrict(algebra.NewScan("A", "A"),
		&algebra.SubPred{Kind: algebra.CmpAll, Op: value.NE, Left: expr.C("A.a_val"), Sub: sub})
}

// fig5Plan is the Figure 5 tree-nested EXISTS shape over the TPC-R
// warehouse; its literal comparisons drive zone-map pruning.
func fig5Plan() algebra.Node {
	mk := func(alias, status string, op value.CmpOp, price float64) *algebra.Subquery {
		return &algebra.Subquery{
			Source: algebra.NewScan("orders", alias),
			Where: &algebra.Atom{E: expr.NewAnd(
				expr.Eq(expr.C(alias+".o_custkey"), expr.C("C.c_custkey")),
				expr.Eq(expr.C(alias+".o_orderstatus"), expr.StrLit(status)),
				expr.NewCmp(op, expr.C(alias+".o_totalprice"), expr.FloatLit(price)),
			)},
		}
	}
	return algebra.NewRestrict(algebra.NewScan("customer", "C"),
		algebra.And(
			algebra.ExistsPred(mk("O1", "O", value.GT, 300_000)),
			algebra.ExistsPred(mk("O2", "F", value.LT, 150_000)),
		))
}

func durableCorpus() *storage.Catalog {
	cat := datagen.KeyPair(datagen.KeyPairOpts{Rows: 2_000, Seed: 11})
	tpcr := datagen.TPCR(datagen.TPCROpts{
		Customers: 150, Orders: 2_000, Lineitems: 0, Suppliers: 10, Parts: 50, Seed: 12,
	})
	for _, name := range tpcr.Names() {
		if t, err := tpcr.Table(name); err == nil {
			cat.Register(t)
		}
	}
	return cat
}

// TestDurableRestartRoundTrip is the write → crash → reopen → compare
// property over the fig4/fig5 corpus: a second engine recovering the
// same directory must hold byte-identical tables and answer both
// benchmark queries identically.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	e := New(durableCorpus())
	defer e.Close()
	if _, err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	base4, err := e.Run(fig4Plan(), GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	base5, err := e.Run(fig5Plan(), GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// No clean shutdown: the next engine sees whatever the checkpoint
	// committed, exactly the crash-recovery contract.

	e2 := New(storage.NewCatalog())
	defer e2.Close()
	rep, err := e2.SetDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 0 || rep.SkippedManifests != 0 {
		t.Fatalf("recovery report %+v", rep)
	}
	for _, name := range e.Catalog().Names() {
		want, _ := e.Catalog().Table(name)
		got, err := e2.Catalog().Table(name)
		if err != nil {
			t.Fatalf("table %s missing after restart", name)
		}
		if got.Rel.Len() != want.Rel.Len() {
			t.Fatalf("table %s: %d rows, want %d", name, got.Rel.Len(), want.Rel.Len())
		}
		for i := range want.Rel.Rows {
			if !got.Rel.Rows[i].Equal(want.Rel.Rows[i]) {
				t.Fatalf("table %s row %d differs after restart", name, i)
			}
		}
	}
	for _, q := range []struct {
		name string
		plan algebra.Node
		want *relation.Relation
	}{{"fig4", fig4Plan(), base4}, {"fig5", fig5Plan(), base5}} {
		got, err := e2.Run(q.plan, GMDJOpt)
		if err != nil {
			t.Fatalf("%s after restart: %v", q.name, err)
		}
		if d := q.want.Diff(got); d != "" {
			t.Fatalf("%s differs after restart: %s", q.name, d)
		}
	}
}

// TestTransparentCheckpoint: with a data dir configured, running any
// query flushes dirty tables first — no explicit Checkpoint call.
func TestTransparentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 300, Seed: 5}))
	defer e.Close()
	if _, err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(fig4Plan(), GMDJOpt); err != nil {
		t.Fatal(err)
	}
	e2 := New(storage.NewCatalog())
	defer e2.Close()
	rep, err := e2.SetDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generation == 0 {
		t.Fatal("query did not trigger a transparent checkpoint")
	}
	if _, err := e2.Catalog().Table("A"); err != nil {
		t.Fatal("table A not recovered from the transparent checkpoint")
	}
}

// TestQuarantinedTableFailsTyped: recovery over a corrupt segment
// quarantines that table; queries touching it fail with
// ErrSegmentCorrupt while the other tables keep answering.
func TestQuarantinedTableFailsTyped(t *testing.T) {
	dir := t.TempDir()
	e := New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 500, Seed: 7}))
	defer e.Close()
	if _, err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var aFile string
	for _, s := range e.DiskStore().Segments(e.Catalog()) {
		if s.Table == "A" {
			aFile = s.Files[0]
		}
	}
	path := filepath.Join(dir, aFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(storage.NewCatalog())
	defer e2.Close()
	rep, err := e2.SetDataDir(dir)
	if err != nil {
		t.Fatalf("recovery must quarantine, not fail: %v", err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Table != "A" {
		t.Fatalf("quarantined %+v", rep.Quarantined)
	}
	if _, err := e2.Run(algebra.NewScan("A", "A"), GMDJOpt); !errors.Is(err, storage.ErrSegmentCorrupt) {
		t.Fatalf("scan of quarantined table: %v, want ErrSegmentCorrupt", err)
	}
	if _, err := e2.Run(fig4Plan(), GMDJOpt); !errors.Is(err, storage.ErrSegmentCorrupt) {
		t.Fatalf("fig4 over quarantined A: %v, want ErrSegmentCorrupt", err)
	}
	got, err := e2.Run(algebra.NewScan("B", "B"), GMDJOpt)
	if err != nil {
		t.Fatalf("unaffected table must keep serving: %v", err)
	}
	if got.Len() != 500 {
		t.Fatalf("table B answered %d rows, want 500", got.Len())
	}
}

// TestEnvDataDirLifecycle: GMDJ_DATA_DIR claims a fresh per-process
// subdirectory and removes it on Close.
func TestEnvDataDirLifecycle(t *testing.T) {
	root := t.TempDir()
	t.Setenv(EnvDataDir, root)
	e := New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 50, Seed: 3}))
	defer e.Close()
	sub := e.DataDir()
	if sub == "" || !strings.HasPrefix(sub, root) {
		t.Fatalf("env data dir = %q, want under %q", sub, root)
	}
	if _, err := e.Run(algebra.NewScan("A", "A"), GMDJOpt); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(sub); err != nil {
		t.Fatalf("data dir missing while engine open: %v", err)
	}
	e.Close()
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("env-owned data dir not removed on Close: %v", err)
	}
}

// TestBadDataDirPanicsBeforeScratch: an explicit data dir that cannot
// be opened panics before New builds the pool and scratch store, so no
// scratch directory is left behind under the spill root.
func TestBadDataDirPanicsBeforeScratch(t *testing.T) {
	root := t.TempDir()
	file := filepath.Join(root, "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	spillRoot := filepath.Join(root, "spill")
	if err := os.Mkdir(spillRoot, 0o755); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New with an unopenable data dir did not panic")
			}
		}()
		New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 50, Seed: 3}), func(c *Config) {
			c.MemoryLimit, c.SpillDir, c.DataDir = 1<<20, spillRoot, filepath.Join(file, "data")
		})
	}()
	left, err := os.ReadDir(spillRoot)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("scratch left behind under the spill root: %v", left)
	}
}

// TestZonePruningProvesBlocksAndAgrees: a selective literal predicate
// over a sorted column must report pruned blocks in EXPLAIN ANALYZE
// and return exactly the rows an unpruned scan filter would.
func TestZonePruningProvesBlocksAndAgrees(t *testing.T) {
	rows := 8 * storage.ZoneBlockRows
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "t", Name: "x", Type: value.KindInt},
		relation.Column{Qualifier: "t", Name: "y", Type: value.KindInt},
	))
	for i := 0; i < rows; i++ {
		rel.Append(relation.Tuple{value.Int(int64(i)), value.Int(int64(i % 97))})
	}
	cat := storage.NewCatalog()
	cat.Register(storage.NewTable("t", rel))
	e := New(cat)
	defer e.Close()

	threshold := int64(rows - storage.ZoneBlockRows/2) // keeps only the last block
	plan := algebra.NewRestrict(algebra.NewScan("t", "t"),
		&algebra.Atom{E: expr.NewCmp(value.GE, expr.C("t.x"), expr.IntLit(threshold))})

	got, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	if want := rows - int(threshold); got.Len() != want {
		t.Fatalf("pruned scan returned %d rows, want %d", got.Len(), want)
	}
	for _, row := range got.Rows {
		if row[0].AsInt() < threshold {
			t.Fatalf("pruned scan leaked row x=%d", row[0].AsInt())
		}
	}

	analyzed, err := e.ExplainAnalyze(context.Background(), plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(analyzed, "segments_pruned=7") {
		t.Fatalf("EXPLAIN ANALYZE missing segments_pruned=7:\n%s", analyzed)
	}
	if !strings.Contains(analyzed, "segments_total=8") {
		t.Fatalf("EXPLAIN ANALYZE missing segments_total=8:\n%s", analyzed)
	}

	// An unprunable predicate (column vs column) records nothing.
	noprune := algebra.NewRestrict(algebra.NewScan("t", "t"),
		&algebra.Atom{E: expr.NewCmp(value.LT, expr.C("t.y"), expr.C("t.x"))})
	analyzed, err = e.ExplainAnalyze(context.Background(), noprune, Native)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(analyzed, "segments_pruned") {
		t.Fatalf("column-vs-column predicate should not prune:\n%s", analyzed)
	}
}

// TestZonePruningCorrelatedOuterNameDoesNotPrune: a conjunct whose
// column resolves in the outer environment must not prune the inner
// scan — the binding belongs to the enclosing block.
func TestZonePruningCorrelatedOuterNameDoesNotPrune(t *testing.T) {
	e := New(datagen.KeyPair(datagen.KeyPairOpts{Rows: 3 * storage.ZoneBlockRows, Seed: 9}))
	defer e.Close()
	// EXISTS (B where B.b_key = A.a_key and B.b_val >= 0): the b_val
	// literal conjunct may prune, but A.a_key must never be treated as
	// a B column even though pruning runs inside B's restrict.
	sub := &algebra.Subquery{
		Source: algebra.NewScan("B", "B"),
		Where: &algebra.Atom{E: expr.NewAnd(
			expr.Eq(expr.C("B.b_key"), expr.C("A.a_key")),
			expr.NewCmp(value.GE, expr.C("B.b_val"), expr.IntLit(0)),
		)},
	}
	plan := algebra.NewRestrict(algebra.NewScan("A", "A"), algebra.ExistsPred(sub))
	base, err := e.Run(plan, Native)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Strategy{Unnest, GMDJ, GMDJOpt} {
		got, err := e.Run(plan, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if d := base.Diff(got); d != "" {
			t.Fatalf("%v differs: %s", s, d)
		}
	}
}
