package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json compare needs: each end-to-end
// metric's direction and the share by which it may worsen.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return &sp, nil
}

// readRecords reads a result file: one record per line, as `-out`
// appends them.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// environment is the part of a stamp two results must share to be
// comparable: everything but the commit, the seed and the sequence.
func (s stamp) environment() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s GOGC=%s clients=%d seconds=%g scale=%g",
		s.Nproc, s.GOMAXPROCS, s.GoVersion, s.GOGC, s.Clients, s.Seconds, s.Scale)
}

// verdict classifies B against A for one metric. worse is the change in
// the metric's bad direction as a share of A's median.
func verdict(worse, spread, bound float64) string {
	switch {
	case spread > bound:
		// The runs of one side disagree by more than the bound, so a
		// difference of that size cannot be told from noise.
		return "unresolved"
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "within bound"
}

// compareRecords writes the comparison table and returns the process
// exit code: 0 clean, 1 a regression or a count mismatch, 2 results
// that must not be compared.
func compareRecords(sp *spec, a, b []record, out io.Writer) int {
	byWorkload := func(rs []record, trace int) map[string][]record {
		m := map[string][]record{}
		for _, r := range rs {
			if r.Trace == trace {
				m[r.Workload] = append(m[r.Workload], r)
			}
		}
		return m
	}
	// Refuse before printing anything: a table with a footnote saying it
	// means nothing would still be read.
	envs := map[string]string{}
	seqs := map[string]string{}
	for _, r := range append(append([]record(nil), a...), b...) {
		if env, seen := envs[r.Workload]; seen && env != r.Stamp.environment() {
			fmt.Fprintf(out, "refusing to compare %s: environments differ\n  %s\n  %s\n", r.Workload, env, r.Stamp.environment())
			return 2
		}
		envs[r.Workload] = r.Stamp.environment()
		key := fmt.Sprintf("%s/seed %d", r.Workload, r.Stamp.Seed)
		if seq, seen := seqs[key]; seen && seq != r.Stamp.SeqHash {
			fmt.Fprintf(out, "refusing to compare %s: the operation sequences differ (%s vs %s), so the two sides did different work\n", key, seq, r.Stamp.SeqHash)
			return 2
		}
		seqs[key] = r.Stamp.SeqHash
	}

	code := 0
	ta, tb := byWorkload(a, 0), byWorkload(b, 0)
	fmt.Fprintf(out, "%-15s %-19s %14s %14s  %-24s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "B/A (base A)", "bound", "spread A", "spread B", "verdict")
	for _, name := range workloadNames {
		ra, rb := ta[name], tb[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		failed := func(rs []record) (attempted, failed int) {
			for _, r := range rs {
				attempted += r.Attempted
				failed += r.Failed
			}
			return
		}
		attA, failA := failed(ra)
		attB, failB := failed(rb)
		for _, m := range sp.EndToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := iqrShare(va), iqrShare(vb)
			spread := sa
			if sb > spread {
				spread = sb
			}
			v := verdict(worse, spread, m.Bound)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(out, "%-15s %-19s %14.4f %14.4f  %-24s %5.0f%% %7.1f%% %7.1f%%  %s\n",
				name, m.Name, ma, mb, fmt.Sprintf("%.4f (of %.4g %s)", ratio(mb, ma), ma, m.Unit),
				100*m.Bound, 100*sa, 100*sb, v)
		}
		// A failed operation has no latency at all; more of them is a
		// regression whatever the medians of the survivors say.
		v := "within bound"
		if ratio(float64(failB), float64(attB)) > ratio(float64(failA), float64(attA)) {
			v, code = "worse", 1
		}
		fmt.Fprintf(out, "%-15s %-19s %14s %14s  %-24s %6s %8s %8s  %s\n", name, "ops_failed",
			fmt.Sprintf("%d/%d", failA, attA), fmt.Sprintf("%d/%d", failB, attB), fmt.Sprintf("runs %d vs %d", len(ra), len(rb)), "", "", "", v)
	}

	// Counts of the traced pass.
	ca, cb := byWorkload(a, 1), byWorkload(b, 1)
	for _, name := range workloadNames {
		ra, rb := ca[name], cb[name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if ra[0].Stamp.Clients > 1 {
			// Concurrent clients reach shared state in a different order
			// every run; show the range instead of demanding identity.
			for _, k := range countNames(ra, rb) {
				loA, hiA := countRange(ra, k)
				loB, hiB := countRange(rb, k)
				fmt.Fprintf(out, "%-15s count %-24s A %d..%d  B %d..%d\n", name, k, loA, hiA, loB, hiB)
			}
			continue
		}
		for _, x := range ra {
			for _, y := range rb {
				if x.Stamp.Seed != y.Stamp.Seed {
					continue
				}
				for _, k := range countNames([]record{x}, []record{y}) {
					if x.Counts[k] != y.Counts[k] {
						fmt.Fprintf(out, "%-15s count %-24s seed %d: A %d  B %d  MISMATCH (one client, same seed: counts must repeat exactly)\n",
							name, k, x.Stamp.Seed, x.Counts[k], y.Counts[k])
						code = 1
					}
				}
			}
		}
		fmt.Fprintf(out, "%-15s traced counts compared for %d x %d runs\n", name, len(ra), len(rb))
	}
	return code
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func countNames(a, b []record) []string {
	set := map[string]bool{}
	for _, rs := range [][]record{a, b} {
		for _, r := range rs {
			for k := range r.Counts {
				set[k] = true
			}
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func countRange(rs []record, name string) (lo, hi int64) {
	for i, r := range rs {
		v := r.Counts[name]
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "bench compare: usage: bench compare [-spec BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return compareRecords(sp, a, b, out)
}
