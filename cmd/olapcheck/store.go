package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/benchlab"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// olapcheck store is the crash/recovery torture driver for the
// durable columnar store. It writes a fully deterministic corpus —
// the Figure 4 key-pair tables and a Figure 5 TPC-R-like warehouse,
// both derived from (-rows, -seed, round), and the append-only
// tort_log, which gains rows/10 rows derived from (-seed, round) every
// round — so that after the harness kills the process at an arbitrary
// instant, a fresh run can rebuild the exact in-memory oracle for
// whatever round the store last committed and compare byte-for-byte.
//
// Usage:
//
//	olapcheck store -dir DIR load  [-rows n] [-seed s]
//	olapcheck store -dir DIR churn [-rows n] [-seed s] [-rounds r] [-sleep-ms m]
//	olapcheck store -dir DIR verify [-rows n] [-seed s] [-expect-quarantine t1,t2]
//	olapcheck store -dir DIR segments
//
// load initializes round 0 and checkpoints it. churn recovers the
// store, then per round re-creates every table but tort_log from the
// round-derived seed and appends the round's rows to tort_log (the one
// table whose checkpoints write a tail, not a table), runs one GMDJ
// query (exercising the transparent-checkpoint and packed-hash read
// paths), checkpoints, and prints one "round=<r> gen=<g>" line per
// committed generation — the harness kill -9s it mid-stream. A failed
// checkpoint (injected disk fault) logs to stderr and prints no round
// line: the previous generation stays the committed one and the
// on-disk state remains a valid earlier round. segments prints one
// line per committed table, "<table> rows=<n> <file>...", files in row
// order — how the harness finds a middle file of tort_log to corrupt.
//
// verify recovers, reads the committed round from the tort_meta
// table, rebuilds the oracle for that round, and asserts (a) every
// non-quarantined table is row-for-row identical to the oracle,
// (b) the Figure 4 and Figure 5 queries return identical results on
// the recovered and oracle engines, (c) each -expect-quarantine table
// is quarantined and scanning it fails with the segment-corrupt error
// while the remaining tables still answer. Any violation exits 1.
//
// GMDJ_FAULTS applies to every subcommand, so the harness can aim
// enospc/shortwrite/corrupt/torn at storage.{write,read,manifest}
// during both churn and recovery.
func runStore(args []string) int {
	fs := flag.NewFlagSet("olapcheck store", flag.ExitOnError)
	dir := fs.String("dir", "", "durable store directory (required)")
	rows := fs.Int("rows", 8_000, "corpus cardinality: key-pair rows and warehouse orders per round")
	seed := fs.Uint64("seed", 1, "corpus base seed")
	rounds := fs.Int("rounds", 50, "churn: rounds to run")
	sleepMS := fs.Int("sleep-ms", 0, "churn: pause between rounds (widens the kill window)")
	expectQuarantine := fs.String("expect-quarantine", "", "verify: comma-separated tables that must be quarantined")
	allowQuarantine := fs.Bool("allow-quarantine", false, "verify: tolerate quarantined tables (torn-write churn legitimately loses tables to quarantine)")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	// Flags may appear on either side of the subcommand: re-parse
	// whatever followed it against the same flag set.
	cmd := fs.Arg(0)
	if fs.NArg() >= 1 {
		fs.Parse(fs.Args()[1:])
	}
	if *dir == "" || cmd == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: olapcheck store -dir DIR {load|churn|verify|segments} [flags]")
		return 2
	}
	var err error
	switch cmd {
	case "load":
		err = load(*dir, *rows, *seed)
	case "churn":
		err = churn(*dir, *rows, *seed, *rounds, time.Duration(*sleepMS)*time.Millisecond)
	case "verify":
		err = verify(*dir, *rows, *seed, splitList(*expectQuarantine), *allowQuarantine)
	case "segments":
		err = segments(*dir)
	default:
		err = fmt.Errorf("unknown subcommand %q (want load, churn, verify, or segments)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck store:", err)
		return 1
	}
	return 0
}

// mix derives the per-round corpus seed. Every table of a round is a
// pure function of (seed, rows, round) and nothing else.
func mix(seed uint64, round int) uint64 {
	return seed*1_000_003 + uint64(round)*7919 + 1
}

// buildCorpus constructs the full deterministic corpus for one round:
// the Figure 4 key-pair tables, the Figure 5 warehouse, and the
// tort_meta bookkeeping row verify uses to learn which round the
// store committed.
func buildCorpus(rows int, seed uint64, round int) *storage.Catalog {
	cat := storage.NewCatalog()
	merge(cat, datagen.KeyPair(datagen.KeyPairOpts{Rows: rows, Seed: mix(seed, round)}))
	customers := rows / 20
	if customers < 50 {
		customers = 50
	}
	merge(cat, datagen.TPCR(datagen.TPCROpts{
		Customers: customers,
		Orders:    rows,
		Lineitems: 0,
		Suppliers: 10,
		Parts:     100,
		Seed:      mix(seed, round) + 1,
	}))
	meta := relation.New(relation.NewSchema(
		relation.Column{Qualifier: "tort_meta", Name: "round", Type: value.KindInt},
		relation.Column{Qualifier: "tort_meta", Name: "rows", Type: value.KindInt},
		relation.Column{Qualifier: "tort_meta", Name: "seed", Type: value.KindInt},
	))
	meta.Append(relation.Tuple{value.Int(int64(round)), value.Int(int64(rows)), value.Int(int64(seed))})
	cat.Register(storage.NewTable("tort_meta", meta))
	return cat
}

func merge(dst, src *storage.Catalog) {
	for _, name := range src.Names() {
		if t, err := src.Table(name); err == nil {
			dst.Register(t)
		}
	}
}

// logTable is the append-only table: it is never re-created from one
// round to the next, so its checkpoints take the store's append path
// and it comes to span several segment files.
const logTable = "tort_log"

// logRowsPerRound is how many rows every round adds to tort_log.
func logRowsPerRound(rows int) int { return max(rows/10, 1) }

// appendLogRound appends the rows round adds to tort_log, a pure
// function of (seed, rows, round), about half with a NULL note.
func appendLogRound(rel *relation.Relation, rows int, seed uint64, round int) {
	rng := datagen.NewPRNG(mix(seed, round) + 2)
	for i := 0; i < logRowsPerRound(rows); i++ {
		note := value.Null
		if rng.Intn(2) == 0 {
			note = value.Str(fmt.Sprintf("n%d", rng.Intn(64)))
		}
		rel.Append(relation.Tuple{value.Int(int64(round)), value.Int(int64(i)), value.Int(int64(rng.Intn(1 << 20))), note})
	}
}

// logThrough builds tort_log as it stands after rounds 0..round.
func logThrough(rows int, seed uint64, round int) *storage.Table {
	rel := relation.New(relation.NewSchema(
		relation.Column{Qualifier: logTable, Name: "round", Type: value.KindInt},
		relation.Column{Qualifier: logTable, Name: "seq", Type: value.KindInt},
		relation.Column{Qualifier: logTable, Name: "v", Type: value.KindInt},
		relation.Column{Qualifier: logTable, Name: "note", Type: value.KindString},
	))
	for r := 0; r <= round; r++ {
		appendLogRound(rel, rows, seed, r)
	}
	return storage.NewTable(logTable, rel)
}

// registerCorpus replaces every table of the engine's catalog but
// tort_log with the given round's corpus (recovered tables from older
// rounds are overwritten, clearing any quarantine) and appends the
// round's rows to tort_log — re-creating it whole when what is there is
// not rounds 0..round-1 intact: absent, quarantined, or left behind by
// a later round than the one tort_meta could vouch for.
func registerCorpus(e *engine.Engine, rows int, seed uint64, round int) {
	cat := e.Catalog()
	merge(cat, buildCorpus(rows, seed, round))
	t, err := cat.Table(logTable)
	intact := err == nil && t.Rel.Len() == round*logRowsPerRound(rows)
	if intact {
		_, quarantined := t.QuarantineReason()
		intact = !quarantined
	}
	if !intact {
		cat.Register(logThrough(rows, seed, round))
		return
	}
	add := relation.New(t.Rel.Schema)
	appendLogRound(add, rows, seed, round)
	if err := t.Append(add.Rows); err != nil {
		panic(err) // the generator's rows are the schema's by construction
	}
}

// fig4Query and fig5Query are the plans the benchmarks run for the
// paper's Figure 4 (quantified ALL: A-rows whose value differs from
// every B-value carried by a different key) and Figure 5 (tree-nested
// EXISTS over the warehouse tables; its literal comparisons also
// exercise zone-map pruning on the recovered segments).
func fig4Query() algebra.Node { return new(benchlab.Runner).Fig4().Query(benchlab.Size{}) }
func fig5Query() algebra.Node { return new(benchlab.Runner).Fig5().Query(benchlab.Size{}) }

// openStore builds an engine over the durable directory, recovering
// whatever the last run committed. engine.New honors GMDJ_FAULTS, so
// the harness can inject recovery-time faults.
func openStore(dir string) (*engine.Engine, *storage.RecoveryReport, error) {
	e := engine.New(storage.NewCatalog())
	rep, err := e.SetDataDir(dir)
	if err != nil {
		return nil, nil, err
	}
	return e, rep, nil
}

func load(dir string, rows int, seed uint64) error {
	e, _, err := openStore(dir)
	if err != nil {
		return err
	}
	registerCorpus(e, rows, seed, 0)
	gen, err := e.Checkpoint()
	if err != nil {
		return fmt.Errorf("load checkpoint: %v", err)
	}
	fmt.Printf("gen=%d round=0\n", gen)
	return nil
}

func churn(dir string, rows int, seed uint64, rounds int, sleep time.Duration) error {
	e, rep, err := openStore(dir)
	if err != nil {
		return err
	}
	start := committedRound(e.Catalog()) + 1
	fmt.Fprintf(os.Stderr, "olapcheck store: churn from round %d (recovered gen=%d, %d quarantined)\n",
		start, rep.Generation, len(rep.Quarantined))
	for r := start; r < start+rounds; r++ {
		registerCorpus(e, rows, seed, r)
		// One query per round drives the read path (and the transparent
		// maybeCheckpoint hook) between explicit checkpoints.
		if _, err := e.Run(fig5Query(), engine.GMDJOpt); err != nil {
			fmt.Fprintf(os.Stderr, "olapcheck store: round %d query: %v\n", r, err)
		}
		gen, err := e.Checkpoint()
		if err != nil {
			// Not committed: the previous generation remains the durable
			// truth, which is still a valid earlier round. Keep churning —
			// rate-limited injected faults let later rounds succeed.
			fmt.Fprintf(os.Stderr, "olapcheck store: round %d checkpoint: %v\n", r, err)
			continue
		}
		fmt.Printf("round=%d gen=%d\n", r, gen)
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
	return nil
}

// segments prints the committed generation's tables and their files.
func segments(dir string) error {
	e, _, err := openStore(dir)
	if err != nil {
		return err
	}
	for _, s := range e.DiskStore().Segments(e.Catalog()) {
		fmt.Printf("%s rows=%d %s\n", s.Table, s.Rows, strings.Join(s.Files, " "))
	}
	return nil
}

// committedRound reads the round number out of the recovered
// tort_meta table, or -1 when the store holds none (fresh directory
// or quarantined meta).
func committedRound(cat *storage.Catalog) int {
	t, err := cat.Table("tort_meta")
	if err != nil {
		return -1
	}
	if _, quarantined := t.QuarantineReason(); quarantined {
		return -1
	}
	if t.Rel.Len() != 1 {
		return -1
	}
	return int(t.Rel.Rows[0][0].AsInt())
}

func verify(dir string, rows int, seed uint64, expectQuarantine []string, allowQuarantine bool) error {
	e, rep, err := openStore(dir)
	if err != nil {
		return err
	}
	cat := e.Catalog()
	round := committedRound(cat)
	if round < 0 {
		if allowQuarantine && rep.Generation > 0 {
			// The torn write landed on tort_meta itself: the committed
			// round is unknowable, so the structural comparison cannot
			// run. Recovery still succeeded, which is all that can be
			// asserted here.
			fmt.Printf("verified round=unknown gen=%d (tort_meta quarantined) quarantined=%d skipped_manifests=%d\n",
				rep.Generation, len(rep.Quarantined), rep.SkippedManifests)
			return nil
		}
		return fmt.Errorf("no committed round recovered (gen=%d, %d quarantined, %d manifests skipped)",
			rep.Generation, len(rep.Quarantined), rep.SkippedManifests)
	}
	meta, _ := cat.Table("tort_meta")
	metaRows, metaSeed := int(meta.Rel.Rows[0][1].AsInt()), uint64(meta.Rel.Rows[0][2].AsInt())
	if metaRows != rows || metaSeed != seed {
		return fmt.Errorf("store was written with -rows %d -seed %d, verify ran with -rows %d -seed %d",
			metaRows, metaSeed, rows, seed)
	}

	quarantined := map[string]bool{}
	for _, q := range expectQuarantine {
		quarantined[q] = true
	}
	if allowQuarantine {
		// A torn segment write (lying fsync) commits a manifest whose
		// table cannot be read back; recovery quarantining it is the
		// contract, not a failure. Fold whatever recovery quarantined
		// into the tolerated set.
		for _, name := range cat.Names() {
			if t, err := cat.Table(name); err == nil {
				if _, ok := t.QuarantineReason(); ok {
					quarantined[name] = true
				}
			}
		}
	}
	// (c) quarantine semantics: each expected table is quarantined and
	// scanning it yields the typed corruption error.
	for _, name := range expectQuarantine {
		t, err := cat.Table(name)
		if err != nil {
			return fmt.Errorf("expected quarantined table %s missing: %v", name, err)
		}
		if _, ok := t.QuarantineReason(); !ok {
			return fmt.Errorf("table %s: expected quarantine, but it recovered intact", name)
		}
		if _, err := e.Run(algebra.NewScan(name, name), engine.GMDJOpt); !errors.Is(err, storage.ErrSegmentCorrupt) {
			return fmt.Errorf("table %s: scan of quarantined table returned %v, want ErrSegmentCorrupt", name, err)
		}
	}

	// (a) byte-identical recovery: every non-quarantined table matches
	// the oracle row for row, in order.
	oracle := buildCorpus(rows, seed, round)
	oracle.Register(logThrough(rows, seed, round))
	checked := 0
	for _, name := range oracle.Names() {
		if quarantined[name] {
			continue
		}
		ot, err := oracle.Table(name)
		if err != nil {
			return err
		}
		want := ot.Rel
		t, err := cat.Table(name)
		if err != nil {
			return fmt.Errorf("table %s: missing after recovery: %v", name, err)
		}
		if reason, ok := t.QuarantineReason(); ok {
			return fmt.Errorf("table %s: unexpectedly quarantined: %s", name, reason)
		}
		got := t.Rel
		if !got.Schema.Equal(want.Schema) {
			return fmt.Errorf("table %s: recovered schema differs from oracle", name)
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("table %s: recovered %d rows, oracle has %d", name, got.Len(), want.Len())
		}
		for i := range want.Rows {
			if !got.Rows[i].Equal(want.Rows[i]) {
				return fmt.Errorf("table %s: row %d differs from oracle\n got %v\nwant %v", name, i, got.Rows[i], want.Rows[i])
			}
		}
		checked++
	}

	// (b) query equivalence: the paper's Figure 4 and Figure 5 shapes
	// answer identically on the recovered store and the oracle.
	oe := engine.New(oracle)
	queries := 0
	for _, q := range []struct {
		name   string
		plan   func() algebra.Node
		tables []string
	}{
		{"fig4", fig4Query, []string{"A", "B"}},
		{"fig5", fig5Query, []string{"customer", "orders"}},
	} {
		touched := false
		for _, t := range q.tables {
			if quarantined[t] {
				touched = true
			}
		}
		if touched {
			continue
		}
		got, err := e.Run(q.plan(), engine.GMDJOpt)
		if err != nil {
			return fmt.Errorf("%s on recovered store: %v", q.name, err)
		}
		want, err := oe.Run(q.plan(), engine.GMDJOpt)
		if err != nil {
			return fmt.Errorf("%s on oracle: %v", q.name, err)
		}
		if !got.EqualBag(want) {
			return fmt.Errorf("%s: recovered store and oracle disagree (%d vs %d rows)", q.name, got.Len(), want.Len())
		}
		queries++
	}

	fmt.Printf("verified round=%d gen=%d tables=%d queries=%d quarantined=%d skipped_manifests=%d\n",
		round, rep.Generation, checked, queries, len(quarantined), rep.SkippedManifests)
	return nil
}
