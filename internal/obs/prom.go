package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4). The
// repo's no-dependency rule extends to the metrics endpoint: a scrape
// is # HELP / # TYPE headers plus one sample line per series, which is
// short enough to emit and validate by hand. PromWriter accumulates
// families in emission order; ValidateExposition is the other half of
// the contract — the chaos harness scrapes a live server and feeds the
// bytes back through it, so the writer cannot drift from the format
// without a test noticing.

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double-quote, and newline.
func promEscapeLabel(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promLabels renders a label set as {k="v",...} with keys sorted, ""
// for an empty set.
func promLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, promEscapeLabel(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// PromWriter emits one exposition document. Families must be declared
// (Counter/Gauge/Histogram) before samples are added to them; a family
// may receive many samples (one per label set). Not concurrency-safe —
// build per scrape.
type PromWriter struct {
	b        strings.Builder
	declared map[string]string // family name -> type
	lastErr  error
}

// NewPromWriter creates an empty exposition document.
func NewPromWriter() *PromWriter {
	return &PromWriter{declared: map[string]string{}}
}

func (p *PromWriter) declare(name, kind, help string) {
	if prev, ok := p.declared[name]; ok {
		if prev != kind {
			p.lastErr = fmt.Errorf("prom: family %s redeclared as %s (was %s)", name, kind, prev)
		}
		return
	}
	p.declared[name] = kind
	fmt.Fprintf(&p.b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&p.b, "# TYPE %s %s\n", name, kind)
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample; the family is declared on first
// use. Counter names must end in _total (enforced by the validator).
func (p *PromWriter) Counter(name, help string, labels map[string]string, v int64) {
	p.declare(name, "counter", help)
	fmt.Fprintf(&p.b, "%s%s %d\n", name, promLabels(labels), v)
}

// CounterF emits one float-valued counter sample — for counters that
// accumulate fractional units (CPU seconds). Prometheus counters are
// floats on the wire; the integer Counter is just the common case.
func (p *PromWriter) CounterF(name, help string, labels map[string]string, v float64) {
	p.declare(name, "counter", help)
	fmt.Fprintf(&p.b, "%s%s %s\n", name, promLabels(labels), promFloat(v))
}

// Gauge emits one gauge sample; the family is declared on first use.
func (p *PromWriter) Gauge(name, help string, labels map[string]string, v float64) {
	p.declare(name, "gauge", help)
	fmt.Fprintf(&p.b, "%s%s %s\n", name, promLabels(labels), promFloat(v))
}

// Histogram renders a HistSnapshot (non-cumulative [Lo,Hi) buckets in
// the histogram's native unit) as a Prometheus histogram: cumulative
// _bucket{le=} series, _sum, and _count. scale converts the native
// unit into the exposed one (1e-9 for nanoseconds → seconds, the
// Prometheus base-unit convention). The le bound of each bucket is its
// exclusive Hi, which is correct for cumulative counts: every sample
// in [Lo,Hi) is <= Hi for integer-valued sources.
func (p *PromWriter) Histogram(name, help string, labels map[string]string, s HistSnapshot, scale float64) {
	p.declare(name, "histogram", help)
	cum := int64(0)
	for _, bk := range s.Buckets {
		cum += bk.Count
		lb := map[string]string{"le": promFloat(float64(bk.Hi) * scale)}
		for k, v := range labels {
			lb[k] = v
		}
		fmt.Fprintf(&p.b, "%s_bucket%s %d\n", name, promLabels(lb), cum)
	}
	lb := map[string]string{"le": "+Inf"}
	for k, v := range labels {
		lb[k] = v
	}
	fmt.Fprintf(&p.b, "%s_bucket%s %d\n", name, promLabels(lb), s.Count)
	fmt.Fprintf(&p.b, "%s_sum%s %s\n", name, promLabels(labels), promFloat(float64(s.Sum)*scale))
	fmt.Fprintf(&p.b, "%s_count%s %d\n", name, promLabels(labels), s.Count)
}

// Err reports the first structural mistake made while building (family
// redeclared with a different type); nil when the document is sound.
func (p *PromWriter) Err() error { return p.lastErr }

// WriteTo emits the document.
func (p *PromWriter) WriteTo(w io.Writer) (int64, error) {
	if p.lastErr != nil {
		return 0, p.lastErr
	}
	n, err := io.WriteString(w, p.b.String())
	return int64(n), err
}

// String returns the document text.
func (p *PromWriter) String() string { return p.b.String() }

// PromContentType is the scrape Content-Type for the text format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

var promNameRe = func(s string) func(string) bool {
	// Tiny matcher instead of regexp: [a-zA-Z_:][a-zA-Z0-9_:]*
	return func(name string) bool {
		if name == "" {
			return false
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
			if i > 0 {
				ok = ok || c >= '0' && c <= '9'
			}
			if !ok {
				return false
			}
		}
		return true
	}
}("")

// ValidateExposition checks a scraped document against the subset of
// the text format this repo emits: every sample's family is declared
// by a preceding # TYPE, names are legal, counter families end in
// _total, histogram buckets are cumulative (non-decreasing in le
// order, +Inf equals _count), label syntax parses, and sample values
// are numbers. Returns nil for a valid document.
func ValidateExposition(doc []byte) error {
	types := map[string]string{}
	type histState struct {
		lastCum  map[string]int64 // label-sig (minus le) -> last cumulative
		infCount map[string]int64
		count    map[string]int64
	}
	hists := map[string]*histState{}
	lines := strings.Split(string(doc), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
				if len(fields) < 3 {
					return fmt.Errorf("line %d: malformed %s", lineNo, fields[1])
				}
				name := fields[2]
				if !promNameRe(name) {
					return fmt.Errorf("line %d: bad metric name %q", lineNo, name)
				}
				if fields[1] == "TYPE" {
					if len(fields) < 4 {
						return fmt.Errorf("line %d: TYPE without a type", lineNo)
					}
					kind := fields[3]
					switch kind {
					case "counter", "gauge", "histogram", "summary", "untyped":
					default:
						return fmt.Errorf("line %d: unknown type %q", lineNo, kind)
					}
					if prev, ok := types[name]; ok && prev != kind {
						return fmt.Errorf("line %d: family %s redeclared %s (was %s)", lineNo, name, kind, prev)
					}
					if kind == "counter" && !strings.HasSuffix(name, "_total") {
						return fmt.Errorf("line %d: counter %s does not end in _total", lineNo, name)
					}
					types[name] = kind
					if kind == "histogram" {
						hists[name] = &histState{lastCum: map[string]int64{}, infCount: map[string]int64{}, count: map[string]int64{}}
					}
				}
			}
			continue
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		family := name
		suffix := ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, sfx)
			if base != name {
				if _, ok := hists[base]; ok {
					family, suffix = base, sfx
				}
				break
			}
		}
		kind, ok := types[family]
		if !ok {
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, name)
		}
		switch kind {
		case "histogram":
			h := hists[family]
			sig := labelSigWithoutLe(labels)
			switch suffix {
			case "_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("line %d: %s_bucket without le label", lineNo, family)
				}
				cum := int64(value)
				if prev, seen := h.lastCum[sig]; seen && cum < prev {
					return fmt.Errorf("line %d: %s{%s} bucket le=%s not cumulative (%d < %d)",
						lineNo, family, sig, le, cum, prev)
				}
				h.lastCum[sig] = cum
				if le == "+Inf" {
					h.infCount[sig] = cum
				}
			case "_count":
				h.count[sig] = int64(value)
			case "_sum":
			default:
				return fmt.Errorf("line %d: bare sample %s for histogram family %s", lineNo, name, family)
			}
		case "counter", "gauge", "untyped", "summary":
			// value already parsed; nothing structural left to check.
		}
	}
	for family, h := range hists {
		for sig, inf := range h.infCount {
			if cnt, ok := h.count[sig]; ok && cnt != inf {
				return fmt.Errorf("histogram %s{%s}: +Inf bucket %d != _count %d", family, sig, inf, cnt)
			}
		}
	}
	return nil
}

// ParsePromSample parses one exposition sample line into its name,
// labels, and value — olapcheck prom's monotonicity diff is built on it.
func ParsePromSample(line string) (name string, labels map[string]string, value float64, err error) {
	return parsePromSample(line)
}

func parsePromSample(line string) (string, map[string]string, float64, error) {
	labels := map[string]string{}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		end := strings.LastIndexByte(rest, '}')
		if end < brace {
			return "", nil, 0, fmt.Errorf("unterminated label set")
		}
		var perr error
		labels, perr = parsePromLabels(rest[brace+1 : end])
		if perr != nil {
			return "", nil, 0, perr
		}
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return "", nil, 0, fmt.Errorf("sample without value")
		}
		name = rest[:sp]
		rest = strings.TrimSpace(rest[sp+1:])
	}
	if !promNameRe(name) {
		return "", nil, 0, fmt.Errorf("bad metric name %q", name)
	}
	// rest is "value" or "value timestamp"; we never emit timestamps.
	valStr := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valStr = rest[:sp]
	}
	v, err := strconv.ParseFloat(strings.TrimPrefix(valStr, "+"), 64)
	if err != nil && valStr != "+Inf" && valStr != "-Inf" && valStr != "NaN" {
		return "", nil, 0, fmt.Errorf("bad sample value %q", valStr)
	}
	switch valStr {
	case "+Inf":
		v = math.Inf(1)
	case "-Inf":
		v = math.Inf(-1)
	case "NaN":
		v = math.NaN()
	}
	return name, labels, v, nil
}

func parsePromLabels(s string) (map[string]string, error) {
	out := map[string]string{}
	i := 0
	for i < len(s) {
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("label without '=' in %q", s)
		}
		key := strings.TrimSpace(s[i : i+eq])
		if !promNameRe(key) {
			return nil, fmt.Errorf("bad label name %q", key)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, fmt.Errorf("unquoted label value in %q", s)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value in %q", s)
		}
		i++ // closing quote
		out[key] = val.String()
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' between labels in %q", s)
			}
			i++
		}
	}
	return out, nil
}

func labelSigWithoutLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k == "le" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	return b.String()
}
