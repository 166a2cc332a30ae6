package loadflow

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/serve"
)

func TestParseYAMLSubset(t *testing.T) {
	src := `
# scenario header
name: demo
seed: 42
rate: 0.25
enabled: true
empty:
target: "http://x:80"  # trailing comment
steps:
  - name: warmup
    concurrency: 4
    queries:
      - sql: 'SELECT * FROM t WHERE x > $RANDINT(1,9)'
        weight: 3
      - sql: "SELECT 1"
  - name: storm
    concurrency: 200
list:
  - 1
  - two
  - false
`
	got, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]any{
		"name":    "demo",
		"seed":    int64(42),
		"rate":    0.25,
		"enabled": true,
		"empty":   nil,
		"target":  "http://x:80",
		"steps": []any{
			map[string]any{
				"name":        "warmup",
				"concurrency": int64(4),
				"queries": []any{
					map[string]any{"sql": "SELECT * FROM t WHERE x > $RANDINT(1,9)", "weight": int64(3)},
					map[string]any{"sql": "SELECT 1"},
				},
			},
			map[string]any{"name": "storm", "concurrency": int64(200)},
		},
		"list": []any{int64(1), "two", false},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed:\n%#v\nwant:\n%#v", got, want)
	}
}

func TestParseYAMLFoldedScalar(t *testing.T) {
	src := `
steps:
  - sql: >-
      SELECT h.HourDsc FROM Hours h
      WHERE EXISTS (SELECT * FROM Flow fi
        WHERE fi.DestIP = '167.167.167.0')
    weight: 2
`
	got, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	item := got.(map[string]any)["steps"].([]any)[0].(map[string]any)
	want := "SELECT h.HourDsc FROM Hours h WHERE EXISTS (SELECT * FROM Flow fi WHERE fi.DestIP = '167.167.167.0')"
	if item["sql"] != want {
		t.Fatalf("folded sql = %q, want %q", item["sql"], want)
	}
	if item["weight"] != int64(2) {
		t.Fatalf("weight after folded scalar = %v", item["weight"])
	}
}

func TestParseYAMLErrors(t *testing.T) {
	for name, src := range map[string]string{
		"tab indent":   "a:\n\tb: 1",
		"bare text":    "a: 1\njust words here: : :\n  dangling",
		"dup key":      "a: 1\na: 2",
		"unterminated": `a: "oops`,
	} {
		if _, err := ParseYAML(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseScenario(t *testing.T) {
	src := `
name: cancel-storm
description: storm with aborts
tenant: default
seed: 7
steps:
  - name: storm
    concurrency: 200
    duration: 5s
    timeout: 250ms
    abort_rate: 0.1
    abort_after: 2ms
    queries:
      - sql: SELECT name FROM users
        weight: 2
      - sql: SELECT name FROM users WHERE ip = '10.0.0.$RANDINT(1,40)'
        strategy: gmdj
`
	sc, err := ParseScenario(src)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "cancel-storm" || sc.Seed != 7 || len(sc.Steps) != 1 {
		t.Fatalf("scenario = %+v", sc)
	}
	st := sc.Steps[0]
	if st.Concurrency != 200 || st.Duration != 5*time.Second || st.AbortRate != 0.1 ||
		st.AbortAfter != 2*time.Millisecond || st.Timeout != 250*time.Millisecond {
		t.Fatalf("step = %+v", st)
	}
	if len(st.Queries) != 2 || st.Queries[0].Weight != 2 || st.Queries[1].Weight != 1 ||
		st.Queries[1].Strategy != "gmdj" {
		t.Fatalf("queries = %+v", st.Queries)
	}

	for name, bad := range map[string]string{
		"no name":     "steps:\n  - duration: 1s\n    queries:\n      - sql: SELECT 1",
		"no steps":    "name: x",
		"no bound":    "name: x\nsteps:\n  - queries:\n      - sql: SELECT 1",
		"no queries":  "name: x\nsteps:\n  - duration: 1s",
		"bad rate":    "name: x\nsteps:\n  - duration: 1s\n    abort_rate: 1.5\n    queries:\n      - sql: SELECT 1",
		"unknown key": "name: x\nbogus: 1\nsteps:\n  - duration: 1s\n    queries:\n      - sql: SELECT 1",
		"typo key":    "name: x\nsteps:\n  - duration: 1s\n    concurency: 3\n    queries:\n      - sql: SELECT 1",
	} {
		if _, err := ParseScenario(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestExpandTemplates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		got := expand("x = $RANDINT(3,5) AND p = '$PICK(a|b)'", rng)
		if !strings.Contains(got, "x = 3") && !strings.Contains(got, "x = 4") && !strings.Contains(got, "x = 5") {
			t.Fatalf("RANDINT out of range: %q", got)
		}
		if !strings.Contains(got, "p = 'a'") && !strings.Contains(got, "p = 'b'") {
			t.Fatalf("PICK out of set: %q", got)
		}
	}
	// Deterministic per seed.
	a := expand("$RANDINT(0,1000000)", rand.New(rand.NewSource(9)))
	b := expand("$RANDINT(0,1000000)", rand.New(rand.NewSource(9)))
	if a != b {
		t.Fatalf("same seed diverged: %q vs %q", a, b)
	}
}

// End-to-end: a scenario with aborts and a quota-shedding tenant runs
// against a live server; every outcome is ok, aborted, or a typed kind.
func TestRunScenarioAgainstServer(t *testing.T) {
	db := gmdj.Open()
	defer db.Close()
	db.MustCreateTable("users",
		gmdj.Col("name", gmdj.String), gmdj.Col("ip", gmdj.String), gmdj.Col("score", gmdj.Int))
	db.MustInsert("users",
		[]any{"ann", "10.0.0.1", int64(10)},
		[]any{"bob", "10.0.0.2", int64(20)},
	)
	s := serve.NewServer(db, serve.Config{
		Tenants: map[string]serve.Quota{
			"tiny": {MaxInFlight: 1, Admission: time.Millisecond},
		},
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	sc, err := ParseScenario(`
name: mini-storm
seed: 3
steps:
  - name: mixed
    concurrency: 16
    requests: 200
    abort_rate: 0.15
    abort_after: 1ms
    queries:
      - sql: SELECT name FROM users WHERE score > $RANDINT(5,25)
        weight: 3
      - sql: SELECT name FROM users WHERE ip = '10.0.0.$RANDINT(1,2)'
  - name: shed
    concurrency: 8
    requests: 40
    tenant: tiny
    queries:
      - sql: SELECT name FROM users
`)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Target: srv.URL, KnownKinds: serve.KnownKinds()}
	res, err := r.Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	mixed := res.Steps[0]
	if mixed.Requests != 200 {
		t.Fatalf("mixed requests = %d, want 200", mixed.Requests)
	}
	if mixed.NonTyped != 0 {
		t.Fatalf("non-typed outcomes: %v", mixed.NonTypedSamples)
	}
	if mixed.OK == 0 {
		t.Fatal("no successful requests")
	}
	if mixed.Latency.Count != mixed.OK {
		t.Fatalf("latency count %d != ok %d", mixed.Latency.Count, mixed.OK)
	}
	shed := res.Steps[1]
	if shed.NonTyped != 0 {
		t.Fatalf("shed step non-typed: %v", shed.NonTypedSamples)
	}
	if shed.OK+counts(shed.ByKind)+shed.Aborted != shed.Requests {
		t.Fatalf("shed accounting: %+v", shed)
	}
}

func counts(m map[string]int64) int64 {
	var n int64
	for _, v := range m {
		n += v
	}
	return n
}
