package engine

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/expr"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/value"
)

// TestObserverFastPathRecordsSamples pins the contract of the
// governor-free hot path: a plain Run (no budget, Background context)
// skips the governor but must still feed the observer — histogram
// samples, a slow-query log record carrying the full stats tree, and
// cost-model estimates annotated onto it.
func TestObserverFastPathRecordsSamples(t *testing.T) {
	e := testEngine(t)
	o := obs.NewObserver(obs.ObserverConfig{})
	e.SetObserver(o)

	rel, err := e.Run(existsPlan(), GMDJOpt)
	if err != nil {
		t.Fatal(err)
	}
	h := o.Histograms()
	if h["query_ns.gmdj-opt"].Count != 1 {
		t.Errorf("fast path did not record a latency sample: %v", h)
	}
	if h["query_rows.gmdj-opt"].P50 != int64(rel.Len()) {
		t.Errorf("row histogram p50 = %d, want %d", h["query_rows.gmdj-opt"].P50, rel.Len())
	}
	if h["op_ns.scan"].Count == 0 || h["op_ns.gmdj"].Count == 0 {
		t.Errorf("operator-kind histograms not sampled: %v", h)
	}
	recs := o.SlowLog().Entries()
	if len(recs) != 1 || recs[0].Stats == nil {
		t.Fatalf("slowlog should capture the stats tree on the fast path: %+v", recs)
	}
	if recs[0].Stats.Find("GMDJ") == nil {
		t.Errorf("slowlog stats tree lacks the GMDJ operator:\n%s", obs.FormatTree(recs[0].Stats))
	}
	if recs[0].Stats.EstRows == nil {
		t.Error("slowlog stats tree lacks cost-model estimates")
	}
	if n := len(o.InFlight()); n != 0 {
		t.Errorf("query still registered in-flight after completion: %d", n)
	}
}

// TestGovernorFastPath: results and observer samples are identical
// with and without the fast path — a cancelable context changes only
// whether a (never-tripping) governor rides along.
func TestGovernorFastPath(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 300, Hours: 4, Users: 6, Seed: 3})
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()
	var want string
	for _, ctx := range []context.Context{context.Background(), cancelable} {
		fast := govern.Uncancelable(ctx)
		e := New(cat)
		defer e.Close()
		o := obs.NewObserver(obs.ObserverConfig{})
		e.SetObserver(o)
		rel, err := e.RunContext(ctx, existsPlan(), GMDJOpt)
		if err != nil {
			t.Fatalf("fastPath=%v: %v", fast, err)
		}
		if fast {
			want = rel.String()
		} else if rel.String() != want {
			t.Errorf("governed run differs from fast-path run:\n%s\nvs\n%s", rel.String(), want)
		}
		if o.Histograms()["query_ns.gmdj-opt"].Count != 1 {
			t.Errorf("fastPath=%v: no latency sample recorded", fast)
		}
	}
}

// runText is RunContext carrying the query's source text, as the root
// package's entry points do.
func runText(ctx context.Context, e *Engine, text string, plan algebra.Node, s Strategy) error {
	p, err := e.Plan(plan, s)
	if err == nil {
		_, _, err = e.RunPlanned(ctx, text, p, s, false)
	}
	return err
}

// TestLiveQueryDashboardDuringScan is the live-registry acceptance
// test: while a long GMDJ detail scan runs, /debug/olap/queries must
// show the query in flight with advancing row counters; cancellation
// then unregisters it and the slow-query log records the aborted run.
func TestLiveQueryDashboardDuringScan(t *testing.T) {
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: 250_000, Hours: 24, Users: 6, Seed: 1})
	o := obs.NewObserver(obs.ObserverConfig{})
	e := New(cat, WithObserver(o))
	defer e.Close()
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	// A θ no class binds (arithmetic over both sides: no equi-binding,
	// no bound for a sorted run, no kernel) and no row satisfies, so no
	// hour ever completes: every detail row scans all 24, and the scan
	// is long enough to observe and cancel at any degree.
	sum := expr.NewArith(expr.OpAdd, expr.C("F.StartTime"), expr.C("H.StartInterval"))
	sub := &algebra.Subquery{
		Source: algebra.NewScan("Flow", "F"),
		Where:  &algebra.Atom{E: expr.NewCmp(value.LT, sum, sum)},
	}
	plan := algebra.NewRestrict(algebra.NewScan("Hours", "H"), algebra.ExistsPred(sub))

	const sql = "SELECT * FROM Hours H WHERE EXISTS (SELECT * FROM Flow F WHERE ...)"
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- runText(ctx, e, sql, plan, GMDJ)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := http.Get(srv.URL + "/debug/olap/queries")
		if err != nil {
			t.Fatal(err)
		}
		var live []obs.LiveSnapshot
		err = json.NewDecoder(res.Body).Decode(&live)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(live) == 1 && live[0].Scanned > 0 && live[0].DetailRows > 0 {
			if live[0].SQL != sql {
				t.Errorf("dashboard SQL = %q, want %q", live[0].SQL, sql)
			}
			if live[0].Strategy != "gmdj" {
				t.Errorf("dashboard strategy = %q, want gmdj", live[0].Strategy)
			}
			break
		}
		select {
		case err := <-done:
			t.Fatalf("query finished (err=%v) before the dashboard observed it", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("dashboard never showed the in-flight query: %+v", live)
		}
		time.Sleep(200 * time.Microsecond)
	}

	cancel()
	if err := <-done; !errors.Is(err, govern.ErrCanceled) {
		t.Fatalf("canceled scan returned %v, want govern.ErrCanceled", err)
	}
	if n := len(o.InFlight()); n != 0 {
		t.Errorf("in-flight registry not drained after cancellation: %d", n)
	}
	recs := o.SlowLog().Entries()
	if len(recs) != 1 || recs[0].Outcome != "canceled" {
		t.Fatalf("slowlog should record the canceled run: %+v", recs)
	}
	// The premise: the θ ran as a fallback and retired nothing. A θ
	// class that binds it, or a completion that ends the scan early,
	// makes the query too fast to observe.
	gm := recs[0].Stats.Find("GMDJ")
	if gm == nil {
		t.Fatal("slowlog stats tree lacks the GMDJ operator")
	}
	if gm.Get("fallback_conds") < 1 || gm.Get("completed") != 0 {
		t.Fatalf("want a fallback θ that completes nothing, got GMDJ counters %v", gm.Totals())
	}
}

// TestSlowLogGoldenJSON pins the slow-query log's exported JSON shape:
// run one query through the observer, normalize the wall-clock fields,
// and compare against the golden document. Breaking this golden means
// breaking every downstream slowlog consumer.
func TestSlowLogGoldenJSON(t *testing.T) {
	e := testEngine(t)
	e.SetParallelism(1)
	o := obs.NewObserver(obs.ObserverConfig{})
	e.SetObserver(o)
	const sql = "SELECT * FROM Hours H WHERE EXISTS (...)"
	if err := runText(context.Background(), e, sql, existsPlan(), GMDJOpt); err != nil {
		t.Fatal(err)
	}
	recs := obs.NormalizeRecords(o.SlowLog().Entries())
	var buf strings.Builder
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimRight(buf.String(), "\n"); got != goldenSlowLog {
		t.Errorf("slowlog JSON drifted:\n--- got ---\n%s\n--- want ---\n%s", got, goldenSlowLog)
	}

	// At degree 2 the logged GMDJ operator — a fallback θ, its fold cut
	// into base ranges — carries the scan multiplier.
	e.SetParallelism(2)
	if err := runText(context.Background(), e, sql, existsPlan(), GMDJOpt); err != nil {
		t.Fatal(err)
	}
	entries := o.SlowLog().Entries()
	gm := entries[len(entries)-1].Stats.Find("GMDJ")
	if gm == nil || gm.Get("workers") != 2 || gm.Get("detail_scans") != 2 {
		t.Errorf("two-worker slowlog record: want workers=2 detail_scans=2 on the GMDJ operator:\n%s",
			obs.FormatTree(entries[len(entries)-1].Stats))
	}
}

const goldenSlowLog = `[
  {
    "time": "0001-01-01T00:00:00Z",
    "sql": "SELECT * FROM Hours H WHERE EXISTS (...)",
    "strategy": "gmdj-opt",
    "elapsed_ns": 0,
    "rows": 4,
    "outcome": "ok",
    "stats": {
      "label": "Project [H.HourDsc, H.StartInterval, H.EndInterval]",
      "rows": 4,
      "bytes": 576,
      "elapsed_ns": 0,
      "counters": [
        {
          "name": "workers",
          "value": 1
        }
      ],
      "children": [
        {
          "label": "Select [cnt1 > 0]",
          "rows": 4,
          "bytes": 736,
          "elapsed_ns": 0,
          "counters": [
            {
              "name": "workers",
              "value": 1
            }
          ],
          "children": [
            {
              "label": "GMDJ +completion+freeze (1 conditions)",
              "extras": [
                "cond: (count(*) -> cnt1 | θ: (F.StartTime >= H.StartInterval AND F.StartTime < H.EndInterval))"
              ],
              "rows": 4,
              "bytes": 736,
              "elapsed_ns": 0,
              "counters": [
                {
                  "name": "workers",
                  "value": 1
                },
                {
                  "name": "detail_rows",
                  "value": 33
                },
                {
                  "name": "probes",
                  "value": 4
                },
                {
                  "name": "matches",
                  "value": 4
                },
                {
                  "name": "completed",
                  "value": 4
                },
                {
                  "name": "short_circuit_rows",
                  "value": 267
                },
                {
                  "name": "fallback_conds",
                  "value": 1
                }
              ],
              "children": [
                {
                  "label": "Scan Hours->H",
                  "rows": 4,
                  "bytes": 576,
                  "elapsed_ns": 0,
                  "est_rows": 4
                },
                {
                  "label": "Select [F.Protocol = 'FTP']",
                  "rows": 300,
                  "bytes": 75000,
                  "elapsed_ns": 0,
                  "counters": [
                    {
                      "name": "fused",
                      "value": 1
                    },
                    {
                      "name": "segments_total",
                      "value": 1
                    }
                  ],
                  "children": [
                    {
                      "label": "Scan Flow->F",
                      "rows": 300,
                      "bytes": 75000,
                      "elapsed_ns": 0,
                      "est_rows": 300
                    }
                  ]
                }
              ],
              "est_rows": 3
            }
          ],
          "est_rows": 1
        }
      ],
      "est_rows": 1
    }
  }
]`
