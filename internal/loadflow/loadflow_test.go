package loadflow

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/serve"
)

func TestParseScenario(t *testing.T) {
	sc, err := ParseScenario(`{
  "name": "cancel-storm",
  "description": "storm with aborts",
  "tenant": "default",
  "seed": 7,
  "steps": [{
    "name": "storm",
    "concurrency": 200,
    "duration": "5s",
    "timeout": "250ms",
    "abort_rate": 0.1,
    "abort_after": "2ms",
    "queries": [
      {"sql": "SELECT name FROM users", "weight": 2},
      {"sql": "SELECT name FROM users WHERE ip = '10.0.0.$RANDINT(1,40)'", "strategy": "gmdj"}
    ]
  }]
}`)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "cancel-storm" || sc.Seed != 7 || len(sc.Steps) != 1 {
		t.Fatalf("scenario = %+v", sc)
	}
	st := sc.Steps[0]
	if st.Concurrency != 200 || st.Duration != Duration(5*time.Second) || st.AbortRate != 0.1 ||
		st.AbortAfter != Duration(2*time.Millisecond) || st.Timeout != Duration(250*time.Millisecond) {
		t.Fatalf("step = %+v", st)
	}
	if len(st.Queries) != 2 || st.Queries[0].Weight != 2 || st.Queries[1].Weight != 1 ||
		st.Queries[1].Strategy != "gmdj" {
		t.Fatalf("queries = %+v", st.Queries)
	}

	const q = `"queries": [{"sql": "SELECT 1"}]`
	for name, c := range map[string]struct{ src, want string }{
		"no name":           {`{"steps": [{"duration": "1s", ` + q + `}]}`, "has no name"},
		"no steps":          {`{"name": "x"}`, "has no steps"},
		"no bound":          {`{"name": "x", "steps": [{` + q + `}]}`, "neither duration nor requests"},
		"no queries":        {`{"name": "x", "steps": [{"duration": "1s"}]}`, "has no queries"},
		"bad rate":          {`{"name": "x", "steps": [{"duration": "1s", "abort_rate": 1.5, ` + q + `}]}`, "abort_rate 1.5"},
		"unknown key":       {`{"name": "x", "bogus": 1, "steps": [{"duration": "1s", ` + q + `}]}`, `unknown field "bogus"`},
		"typo key":          {`{"name": "x", "steps": [{"duration": "1s", "concurency": 3, ` + q + `}]}`, `unknown field "concurency"`},
		"bad duration":      {`{"name": "x", "steps": [{"duration": "soon", ` + q + `}]}`, "invalid duration"},
		"numeric duration":  {`{"name": "x", "steps": [{"duration": 5, ` + q + `}]}`, "want duration string"},
		"string for number": {`{"name": "x", "steps": [{"requests": "10", ` + q + `}]}`, "cannot unmarshal string"},
		"trailing data":     {`{"name": "x", "steps": [{"duration": "1s", ` + q + `}]} {}`, "trailing data"},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ParseScenario(c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want it to mention %q", err, c.want)
			}
		})
	}
}

// Every committed scenario decodes and validates, so a broken file
// fails here rather than only in the serve-chaos job.
func TestCommittedScenarios(t *testing.T) {
	files, err := filepath.Glob("../../scenarios/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed scenarios: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			if filepath.Ext(f) != ".json" {
				t.Fatal("scenarios are JSON")
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ParseScenario(string(src)); err != nil {
				t.Error(err)
			}
		})
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

	sc, err := ParseScenario(`{
  "name": "mini-storm",
  "seed": 3,
  "steps": [
    {
      "name": "mixed",
      "concurrency": 16,
      "requests": 200,
      "abort_rate": 0.15,
      "abort_after": "1ms",
      "queries": [
        {"sql": "SELECT name FROM users WHERE score > $RANDINT(5,25)", "weight": 3},
        {"sql": "SELECT name FROM users WHERE ip = '10.0.0.$RANDINT(1,2)'"}
      ]
    },
    {
      "name": "shed",
      "concurrency": 8,
      "requests": 40,
      "tenant": "tiny",
      "queries": [{"sql": "SELECT name FROM users"}]
    }
  ]
}`)
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
