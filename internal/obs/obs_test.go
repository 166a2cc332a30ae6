package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestCollectorTree(t *testing.T) {
	c := NewCollector(nil)
	root := c.Enter("Project", "item: x")
	child := c.Enter("Scan T")
	c.Count("pages", 3)
	c.Count("pages", 2)
	c.Exit(child, 100, 2048, nil)
	c.Exit(root, 10, 0, nil)

	got := c.Root()
	if got == nil || got.Label != "Project" {
		t.Fatalf("root = %+v", got)
	}
	if len(got.Children) != 1 || got.Children[0].Label != "Scan T" {
		t.Fatalf("children = %+v", got.Children)
	}
	if got.Rows != 10 || got.Children[0].Rows != 100 || got.Children[0].Bytes != 2048 {
		t.Fatalf("rows/bytes wrong: %+v", got)
	}
	if v := got.Children[0].Get("pages"); v != 5 {
		t.Fatalf("pages = %d, want 5", v)
	}
	if tot := got.Totals(); tot["pages"] != 5 {
		t.Fatalf("Totals = %v", tot)
	}
	if f := got.Find("Scan"); f != got.Children[0] {
		t.Fatalf("Find(Scan) = %+v", f)
	}
}

func TestCollectorExitError(t *testing.T) {
	c := NewCollector(nil)
	op := c.Enter("Join")
	c.Exit(op, 0, 0, errors.New("boom"))
	if c.Root().Err != "boom" {
		t.Fatalf("err = %q", c.Root().Err)
	}
	out := FormatTree(c.Root())
	if !strings.Contains(out, `err="boom"`) {
		t.Fatalf("FormatTree missing error: %q", out)
	}
}

func TestNilSafety(t *testing.T) {
	// Every disabled hook must be callable without panicking: the
	// executor threads obs through unconditionally.
	var c *Collector
	op := c.Enter("x")
	c.Exit(op, 1, 1, nil)
	c.Count("n", 1)
	c.Instant("cat", "n", "arg")
	if c.Current() != nil || c.Root() != nil || c.Tracer() != nil {
		t.Fatal("nil collector must return nil everywhere")
	}

	var o *Op
	o.Add("n", 1)
	if o.Get("n") != 0 || o.Totals() != nil || o.Find("x") != nil {
		t.Fatal("nil op must be inert")
	}

	var tr *Tracer
	tr.Span("c", "n", 1, time.Now(), time.Second)
	tr.Instant("c", "n", "")
	tr.Reset()
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must be inert")
	}
	if err := tr.WriteJSON(&strings.Builder{}); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		tr.Span("op", string(rune('a'+i)), 1, base, time.Millisecond)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("trace JSON invalid: %v\n%s", err, b.String())
	}
	// Metadata event + the 4 newest spans, oldest first.
	if len(out.TraceEvents) != 5 {
		t.Fatalf("events = %d, want 5", len(out.TraceEvents))
	}
	want := []string{"process_name", "g", "h", "i", "j"}
	for i, e := range out.TraceEvents {
		if e.Name != want[i] {
			t.Fatalf("event %d = %q, want %q", i, e.Name, want[i])
		}
	}
}

func TestTracerJSONShape(t *testing.T) {
	tr := NewTracer(16)
	tr.Span("op", "Scan", 1, time.Now(), 2*time.Millisecond)
	tr.Instant("govern", "timeout", "query exceeded budget")
	var b strings.Builder
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(b.String()), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if out["displayTimeUnit"] != "ms" {
		t.Fatalf("displayTimeUnit = %v", out["displayTimeUnit"])
	}
	evs := out["traceEvents"].([]any)
	last := evs[len(evs)-1].(map[string]any)
	if last["ph"] != "i" || last["s"] != "g" {
		t.Fatalf("instant event shape: %v", last)
	}
	if last["args"].(map[string]any)["detail"] != "query exceeded budget" {
		t.Fatalf("instant args: %v", last)
	}
}

func TestNormalizeTimings(t *testing.T) {
	in := "Scan T (time=1.23ms rows=10)\n  Join (time=456µs rows=2 probes=7)\n"
	want := "Scan T (time=X rows=10)\n  Join (time=X rows=2 probes=7)\n"
	if got := NormalizeTimings(in); got != want {
		t.Fatalf("NormalizeTimings = %q", got)
	}
}

func TestCollectorSecondRoot(t *testing.T) {
	// A second top-level Enter (defensive path) must stay visible
	// rather than corrupting the tree.
	c := NewCollector(nil)
	a := c.Enter("first")
	c.Exit(a, 1, 0, nil)
	b := c.Enter("second")
	c.Exit(b, 2, 0, nil)
	root := c.Root()
	if root.Label != "first" || len(root.Children) != 1 || root.Children[0].Label != "second" {
		t.Fatalf("tree = %+v", root)
	}
}
