package obs

import (
	"strings"
	"testing"
)

func TestPromWriterRoundTrip(t *testing.T) {
	p := NewPromWriter()
	p.Counter("olap_requests_total", "requests accepted", map[string]string{"tenant": "a"}, 3)
	p.Counter("olap_requests_total", "requests accepted", map[string]string{"tenant": "b"}, 5)
	p.Gauge("olap_inflight", "in-flight queries", nil, 2)
	p.Gauge("olap_escape", "label escaping", map[string]string{"v": "a\"b\\c\nd"}, 1)

	h := NewHistogram()
	for _, v := range []int64{100, 1_000_000, 2_000_000, 500_000_000} {
		h.Record(v)
	}
	p.Histogram("olap_request_duration_seconds", "request wall time", map[string]string{"tenant": "a"}, h.Snapshot(), 1e-9)

	if err := p.Err(); err != nil {
		t.Fatalf("writer error: %v", err)
	}
	doc := p.String()
	if err := ValidateExposition([]byte(doc)); err != nil {
		t.Fatalf("ValidateExposition rejected our own output: %v\n%s", err, doc)
	}
	for _, want := range []string{
		"# TYPE olap_requests_total counter",
		`olap_requests_total{tenant="a"} 3`,
		`olap_requests_total{tenant="b"} 5`,
		"# TYPE olap_request_duration_seconds histogram",
		`olap_request_duration_seconds_bucket{le="+Inf",tenant="a"} 4`,
		`olap_request_duration_seconds_count{tenant="a"} 4`,
		`olap_escape{v="a\"b\\c\nd"} 1`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("exposition missing %q:\n%s", want, doc)
		}
	}
	// A family must be declared exactly once even with many samples.
	if n := strings.Count(doc, "# TYPE olap_requests_total"); n != 1 {
		t.Errorf("olap_requests_total declared %d times", n)
	}
}

func TestPromHistogramCumulative(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 1000)
	}
	p := NewPromWriter()
	p.Histogram("x_seconds", "x", nil, h.Snapshot(), 1e-9)
	doc := p.String()
	if err := ValidateExposition([]byte(doc)); err != nil {
		t.Fatalf("cumulative histogram rejected: %v\n%s", err, doc)
	}
	// The +Inf bucket must equal the count.
	if !strings.Contains(doc, `x_seconds_bucket{le="+Inf"} 1000`) || !strings.Contains(doc, "x_seconds_count 1000") {
		t.Errorf("+Inf/count mismatch:\n%s", doc)
	}
}

func TestPromWriterRedeclareType(t *testing.T) {
	p := NewPromWriter()
	p.Counter("x_total", "x", nil, 1)
	p.Gauge("x_total", "x", nil, 1)
	if p.Err() == nil {
		t.Fatal("redeclaring a family with a different type must error")
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, doc := range map[string]string{
		"no TYPE":             "foo_total 3\n",
		"counter sans _total": "# TYPE foo counter\nfoo 3\n",
		"bad name":            "# TYPE foo-bar gauge\n",
		"bad value":           "# TYPE foo gauge\nfoo zork\n",
		"unterminated labels": "# TYPE foo gauge\nfoo{a=\"b 3\n",
		"unquoted label":      "# TYPE foo gauge\nfoo{a=b} 3\n",
		"non-cumulative hist": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
		"inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 7\n",
	} {
		if err := ValidateExposition([]byte(doc)); err == nil {
			t.Errorf("%s: accepted invalid doc:\n%s", name, doc)
		}
	}
}

func TestParsePromSample(t *testing.T) {
	name, labels, v, err := ParsePromSample(`olap_x_total{tenant="a b",kind="ok"} 42`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "olap_x_total" || labels["tenant"] != "a b" || labels["kind"] != "ok" || v != 42 {
		t.Errorf("parsed %q %v %v", name, labels, v)
	}
	if _, _, v, err := ParsePromSample(`up 1.5e3`); err != nil || v != 1500 {
		t.Errorf("float parse: v=%v err=%v", v, err)
	}
}

func TestRequestIDHelpers(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Error("two minted request IDs collided")
	}
	if len(a) != 16 {
		t.Errorf("minted ID %q not 16 hex chars", a)
	}
	if got := SanitizeRequestID("ok-id_1.2"); got != "ok-id_1.2" {
		t.Errorf("sanitize mangled a clean ID: %q", got)
	}
	if got := SanitizeRequestID("bad id\n{}"); got != "bad_id___" {
		t.Errorf("sanitize(%q) = %q", "bad id\\n{}", got)
	}
	long := strings.Repeat("x", 200)
	if got := SanitizeRequestID(long); len(got) != MaxRequestIDLen {
		t.Errorf("sanitize did not cap length: %d", len(got))
	}
}
