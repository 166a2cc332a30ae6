package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/rewrite"
	"github.com/olaplab/gmdj/internal/sql"
	"github.com/olaplab/gmdj/internal/storage"
)

// benchShapes are the statements of the benchmark's workloads
// (bench/workloads.go: hash_scan and spill_bound, theta_complete,
// durable_mix; bench/serve.go: serve_small's hot shapes and its four
// miss forms over their four conjunct sets), each with a selective and
// an unselective literal for tables a hundredth the benchmark's size.
func benchShapes() []struct {
	cat     *storage.Catalog
	queries []string
} {
	both := func(format string, lits ...[]any) []string {
		out := make([]string, len(lits))
		for i, l := range lits {
			out[i] = fmt.Sprintf(format, l...)
		}
		return out
	}
	cat := func(queries ...[]string) []string {
		var out []string
		for _, q := range queries {
			out = append(out, q...)
		}
		return out
	}
	tpcr := datagen.DefaultTPCR()
	tpcr.Customers, tpcr.Orders, tpcr.Lineitems, tpcr.Suppliers, tpcr.Parts = 10, 3000, 0, 1, 1
	tpcrQueries := cat(
		both(`SELECT c.c_custkey FROM customer c WHERE EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > %d)`,
			[]any{449_000}, []any{200_000}),
		both(`SELECT c.c_custkey FROM customer c WHERE c.c_acctbal * %d > (SELECT AVG(o.o_totalprice) FROM orders o WHERE o.o_custkey = c.c_custkey)`,
			[]any{23}, []any{38}),
		both(`SELECT c.c_custkey FROM customer c WHERE EXISTS (SELECT * FROM orders o1 WHERE o1.o_custkey = c.c_custkey AND o1.o_orderstatus = 'O' AND o1.o_totalprice > %d) AND EXISTS (SELECT * FROM orders o2 WHERE o2.o_custkey = c.c_custkey AND o2.o_orderstatus = 'F' AND o2.o_totalprice < %d)`,
			[]any{445_000, 6_000}, []any{300_000, 150_000}),
		both(`SELECT c.c_custkey FROM customer c WHERE NOT EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > %d)`,
			[]any{449_000}, []any{440_000}),
		// durable_mix: the same key-range conjunct in the outer block and
		// inside an EXISTS.
		both(`SELECT o.o_orderkey, o.o_totalprice FROM orders o WHERE o.o_orderkey > %d AND o.o_totalprice > %d`,
			[]any{2_900, 100_000}, []any{1_000, 400_000}),
		both(`SELECT c.c_custkey FROM customer c WHERE EXISTS (SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_orderkey > %d AND o.o_totalprice > %d)`,
			[]any{2_990, 100_000}, []any{1_000, 400_000}),
	)
	thetaQueries := []string{
		`SELECT a.a_key FROM A a WHERE a.a_val <> ALL (SELECT b.b_val FROM B b WHERE b.b_key <> a.a_key)`,
		`SELECT a.a_key FROM A a WHERE a.a_val > ALL (SELECT b.b_val FROM B b WHERE b.b_key <> a.a_key)`,
	}
	serveQueries := cat(
		both(`SELECT u.Name FROM User u WHERE u.IPAddress = '%s'`, []any{"10.0.0.1"}, []any{"10.0.0.3"}),
		both(`SELECT h.HourDsc FROM Hours h WHERE EXISTS (SELECT * FROM Flow f WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval AND f.Protocol = '%s' AND f.NumBytes > %d)`,
			[]any{"FTP", 500_000}, []any{"DNS", 875_000}),
		both(`SELECT u.Name FROM User u WHERE u.IPAddress NOT IN (SELECT f.SourceIP FROM Flow f WHERE f.DestIP = '%s' AND f.NumBytes > %d)`,
			[]any{"167.167.167.0", 100_000}, []any{"169.169.169.0", 850_000}),
		both(`SELECT u.Name FROM User u WHERE EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.NumBytes > %d AND EXISTS (SELECT * FROM Hours h WHERE h.StartInterval <= f.StartTime AND f.StartTime < h.EndInterval AND h.HourDsc > %d))`,
			[]any{940_000, 2}, []any{500_000, 17}),
		both(`SELECT u.Name FROM User u WHERE u.IPAddress IN (SELECT f.SourceIP FROM Flow f WHERE f.Protocol = 'DNS' AND f.NumBytes < %d)`,
			[]any{2_000}, []any{240_000}),
		both(`SELECT u.Name FROM User u WHERE %d < (SELECT COUNT(*) FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.Protocol = 'SMTP')`,
			[]any{0}, []any{1}),
		both(`SELECT f.SourceIP, f.NumBytes FROM Flow f WHERE f.NumBytes > %d`, []any{970_000}, []any{500_000}),
		both(`SELECT u.Name FROM User u WHERE NOT EXISTS (SELECT * FROM Flow f WHERE f.SourceIP = u.IPAddress AND f.DestIP = '%s' AND f.NumBytes > %d)`,
			[]any{"168.168.168.0", 700_000}, []any{"167.167.167.0", 100_000}),
	)
	for _, form := range []string{
		`SELECT u.Name FROM User u WHERE EXISTS (SELECT * FROM Flow q0 WHERE q0.SourceIP = u.IPAddress AND %s)`,
		`SELECT u.Name FROM User u WHERE NOT EXISTS (SELECT * FROM Flow q0 WHERE q0.SourceIP = u.IPAddress AND %s)`,
		`SELECT u.IPAddress FROM User u WHERE u.IPAddress IN (SELECT q0.SourceIP FROM Flow q0 WHERE %s)`,
		`SELECT u.IPAddress FROM User u WHERE u.IPAddress NOT IN (SELECT q0.SourceIP FROM Flow q0 WHERE %s)`,
	} {
		for _, conjuncts := range []string{
			`q0.Protocol = 'FTP' AND q0.NumBytes > 400000`,
			`q0.DestIP = '169.169.169.0' AND q0.NumBytes < 490000`,
			`q0.StartTime < 600 AND q0.Protocol = 'SMTP' AND q0.NumBytes > 430000`,
			`q0.StartTime >= 720 AND q0.NumBytes > 460000 AND q0.DestIP = '167.167.167.0'`,
		} {
			serveQueries = append(serveQueries, fmt.Sprintf(form, conjuncts))
		}
	}
	return []struct {
		cat     *storage.Catalog
		queries []string
	}{
		{datagen.TPCR(tpcr), tpcrQueries},
		{datagen.KeyPair(datagen.KeyPairOpts{Rows: 400, Seed: 2}), thetaQueries},
		{datagen.Netflow(datagen.NetflowOpts{Flows: 100, Hours: 24, Users: 40, Seed: 5}), serveQueries},
	}
}

// TestPushSelectionsBenchShapes is the metamorphic check on every shape
// the benchmark issues: Optimize — Coalesce, PushSelections,
// AttachCompletion — and the same pipeline without PushSelections
// return the same multiset, which is also Native's. The shapes
// push-down may not touch (no detail-only conjunct every condition
// shares, no base-only conjunct above a GMDJ) keep their plans.
func TestPushSelectionsBenchShapes(t *testing.T) {
	untouched := []string{"AVG(o.o_totalprice)", "o1.o_orderstatus", "<> ALL", "> ALL", "u.IPAddress = '",
		"FROM Flow f WHERE f.NumBytes > ", "FROM orders o WHERE o.o_orderkey > "}
	moved := 0
	for _, group := range benchShapes() {
		e := New(group.cat)
		for _, q := range group.queries {
			plan, err := sql.ParseAndResolve(q, e)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			rewritten, err := rewrite.SubqueryToGMDJOpts(plan, e.exec, rewrite.Options{AllCounterexample: true})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			coalesced, err := rewrite.Coalesce(rewritten, e.exec)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			without := rewrite.AttachCompletion(coalesced)
			with, err := rewrite.Optimize(rewritten, e.exec)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			expectSame := false
			for _, marker := range untouched {
				expectSame = expectSame || strings.Contains(q, marker)
			}
			if same := with.String() == without.String(); same != expectSame {
				t.Errorf("%s: push-down left the plan unchanged: %v, want %v\n%s", q, same, expectSame, with)
			} else if !same {
				moved++
			}
			native, err := e.Run(plan, Native)
			if err != nil {
				t.Fatalf("%s: native: %v", q, err)
			}
			a, err := e.exec.Run(with)
			if err != nil {
				t.Fatalf("%s: with push-down: %v", q, err)
			}
			b, err := e.exec.Run(without)
			if err != nil {
				t.Fatalf("%s: without push-down: %v", q, err)
			}
			if d := a.Diff(b); d != "" {
				t.Errorf("%s: push-down on/off disagree: %s", q, d)
			}
			if d := native.Diff(a); d != "" {
				t.Errorf("%s: gmdj-opt differs from native: %s", q, d)
			}
		}
		e.Close()
	}
	if moved < 30 {
		t.Errorf("push-down changed %d plans, want at least 30 of the shapes", moved)
	}
}
