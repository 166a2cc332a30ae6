// Package benchlab defines the paper's experiments (Figures 2–5 of the
// evaluation section) as reproducible workloads: data, query, strategy
// matrix, and size sweep. The root bench_test.go and cmd/benchfig both
// drive these definitions, so `go test -bench` and the CLI report the
// same experiments.
//
// Sizes scale with Runner.Scale (1.0 = the paper's row counts). Some
// strategy/size combinations are deliberately skipped with a note when
// the strategy is known to blow up combinatorially — mirroring the
// paper, which reports the join-unnesting of Figure 4 exceeding 7
// hours at 20k rows.
package benchlab

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/olaplab/gmdj/internal/algebra"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/obs"
	"github.com/olaplab/gmdj/internal/storage"
)

// Variant is one line in a figure: a strategy plus environment tweaks
// (index availability).
type Variant struct {
	// Name is the series label ("native", "gmdj-opt", "native-noidx").
	Name string
	// Strategy picks the rewrite.
	Strategy engine.Strategy
	// UseIndexes controls secondary-index use (native strategy only).
	UseIndexes bool
	// MaxInner skips sizes whose inner cardinality exceeds this bound
	// (0 = unlimited). Used for known-quadratic contenders.
	MaxInner int
	// SkipNote explains a skip in reports.
	SkipNote string
	// Workers, when positive, overrides the runner's execution degree
	// for this variant — how the parallel-speedup figure sweeps 1/2/4
	// workers over one workload.
	Workers int
}

// Size is one point of a figure's sweep.
type Size struct {
	Label string
	Outer int
	Inner int
}

// Experiment is one figure of the paper.
type Experiment struct {
	ID       string
	Title    string
	Sizes    []Size
	Variants []Variant
	// Build constructs the catalog for a size (deterministic).
	Build func(s Size) *storage.Catalog
	// Query constructs the logical plan for a size.
	Query func(s Size) algebra.Node
	// Prepare runs after catalog construction (index builds).
	Prepare func(cat *storage.Catalog) error
	// Run, when non-nil, replaces the default plan-once/execute-many
	// cell measurement: experiments that measure a whole pipeline (the
	// prepared-replay figure times compile+bind+execute per query, not
	// a pre-planned tree) own their timing loop. It must honor
	// r.Repeat and fill Result.Elapsed with a per-query time.
	Run func(r *Runner, exp *Experiment, s Size, v Variant) (Result, error)
}

// Result is one measured cell.
type Result struct {
	Figure   string        `json:"figure"`
	Variant  string        `json:"variant"`
	Label    string        `json:"label"`
	Outer    int           `json:"outer"`
	Inner    int           `json:"inner"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	Rows     int           `json:"rows"`
	Skipped  bool          `json:"skipped,omitempty"`
	SkipNote string        `json:"skip_note,omitempty"`
	// Counters are the subtree-aggregated operator counters from one
	// untimed observed run (Runner.CollectStats): detail rows scanned,
	// θ-probes, tuples retired by completion, short-circuited rows —
	// the quantities that explain *why* a strategy won its cell.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Stats is the full per-operator statistics tree from the same
	// observed run.
	Stats *obs.Op `json:"stats,omitempty"`
}

// Runner executes experiments.
type Runner struct {
	// Scale multiplies the paper's row counts (1.0 = paper scale).
	Scale float64
	// Repeat measures each cell this many times and keeps the minimum
	// (default 1).
	Repeat int
	// Workers is the morsel-driven execution degree (0/1 = serial) —
	// GMDJ detail scans, scan/filter/project pipelines, and hash-join
	// build/probe all honor it. Benchmarks keep the serial default so
	// figures measure algorithmic work unless a variant opts in.
	Workers int
	// Verify cross-checks all variants of a size against each other
	// and records a mismatch as an error.
	Verify bool
	// Budget bounds each cell (timeout and/or materialization caps). A
	// cell that exceeds it is recorded as a DNF — the same semantics the
	// paper uses for its 7-hour join-unnesting cutoff — instead of
	// failing the whole sweep.
	Budget engine.Budget
	// CollectStats adds one untimed observed run per cell and records
	// its per-operator statistics into Result.Stats/Counters. The timed
	// measurements are unaffected.
	CollectStats bool
}

// DefaultRunner uses a laptop-friendly 1/16 scale.
func DefaultRunner() *Runner {
	return &Runner{Scale: 1.0 / 16.0, Repeat: 1, Verify: true}
}

// config is the engine configuration one cell runs under: the
// runner's budget, and the variant's degree, else the runner's, with
// the runner's 0 meaning serial — figures measure algorithmic work
// unless asked otherwise.
func (r *Runner) config(v Variant) engine.Option {
	return func(c *engine.Config) {
		c.Budget, c.Parallelism = r.Budget, max(r.Workers, 1)
		if v.Workers > 0 {
			c.Parallelism = v.Workers
		}
	}
}

func (r *Runner) scaleN(n int) int {
	v := int(float64(n) * r.Scale)
	if v < 10 {
		v = 10
	}
	return v
}

// Experiments returns all four figures at the runner's scale.
func (r *Runner) Experiments() []*Experiment {
	return []*Experiment{r.Fig2(), r.Fig3(), r.Fig4(), r.Fig5()}
}

// AllExperiments additionally includes the extension experiments
// beyond the paper's figures.
func (r *Runner) AllExperiments() []*Experiment {
	return append(r.Experiments(), r.ExtCoalesce(), r.Prepared(), r.Memory(), r.Parallel())
}

// Experiment returns one figure by id ("fig2".."fig5",
// "ext-coalesce", "prepared", "memory", "parallel").
func (r *Runner) Experiment(id string) (*Experiment, error) {
	for _, e := range r.AllExperiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("benchlab: unknown experiment %q", id)
}

// RunCell executes one (experiment, size, variant) cell.
func (r *Runner) RunCell(exp *Experiment, s Size, v Variant) (Result, error) {
	res := Result{Figure: exp.ID, Variant: v.Name, Label: s.Label, Outer: s.Outer, Inner: s.Inner}
	if v.MaxInner > 0 && s.Inner > v.MaxInner {
		res.Skipped = true
		res.SkipNote = v.SkipNote
		return res, nil
	}
	if exp.Run != nil {
		return exp.Run(r, exp, s, v)
	}
	cat := exp.Build(s)
	if exp.Prepare != nil {
		if err := exp.Prepare(cat); err != nil {
			return res, err
		}
	}
	eng := engine.New(cat, r.config(v), func(c *engine.Config) { c.UseIndexes = v.UseIndexes })
	defer eng.Close()
	plan := exp.Query(s)
	// Plan once outside the timed region: the paper measures query
	// evaluation; rewriting is microseconds either way.
	physical, err := eng.Plan(plan, v.Strategy)
	if err != nil {
		return res, fmt.Errorf("%s/%s: planning: %w", exp.ID, v.Name, err)
	}
	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	best := time.Duration(0)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		out, err := eng.Run(physical, engine.Native) // already rewritten; Native = evaluate as-is
		if err != nil {
			if errors.Is(err, govern.ErrTimeout) || errors.Is(err, govern.ErrRowBudget) || errors.Is(err, govern.ErrMemBudget) {
				res.Skipped = true
				res.SkipNote = fmt.Sprintf("exceeded runner budget (%v)", err)
				return res, nil
			}
			return res, fmt.Errorf("%s/%s: %w", exp.ID, v.Name, err)
		}
		el := time.Since(start)
		if i == 0 || el < best {
			best = el
		}
		res.Rows = out.Len()
	}
	res.Elapsed = best
	if r.CollectStats {
		_, root, err := eng.RunObserved(context.Background(), physical, engine.Native)
		if err != nil {
			return res, fmt.Errorf("%s/%s: observed run: %w", exp.ID, v.Name, err)
		}
		res.Stats = root
		res.Counters = root.Totals()
	}
	return res, nil
}

// RunExperiment sweeps all sizes × variants of a figure, optionally
// verifying result agreement per size.
func (r *Runner) RunExperiment(exp *Experiment) ([]Result, error) {
	var results []Result
	for _, s := range exp.Sizes {
		rowsSeen := -1
		for _, v := range exp.Variants {
			res, err := r.RunCell(exp, s, v)
			if err != nil {
				return nil, err
			}
			results = append(results, res)
			if r.Verify && !res.Skipped {
				if rowsSeen >= 0 && res.Rows != rowsSeen {
					return nil, fmt.Errorf("benchlab: %s size %s: variant %s returned %d rows, previous variants returned %d",
						exp.ID, s.Label, v.Name, res.Rows, rowsSeen)
				}
				rowsSeen = res.Rows
			}
		}
	}
	return results, nil
}

// FormatCounters renders the captured per-cell operator counters
// (Runner.CollectStats) as one line per measured cell — the textual
// companion to the richer per-operator trees in the JSON output.
func FormatCounters(results []Result) string {
	var b strings.Builder
	for _, r := range results {
		if r.Skipped || len(r.Counters) == 0 {
			continue
		}
		keys := make([]string, 0, len(r.Counters))
		for k := range r.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "  %s/%s %s:", r.Figure, r.Variant, r.Label)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%d", k, r.Counters[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatTable renders results for one figure as an aligned table:
// rows are sizes, columns are variants.
func FormatTable(results []Result) string {
	if len(results) == 0 {
		return "(no results)\n"
	}
	var variants []string
	seenV := map[string]bool{}
	var labels []string
	seenL := map[string]bool{}
	cells := map[[2]string]Result{}
	for _, r := range results {
		if !seenV[r.Variant] {
			seenV[r.Variant] = true
			variants = append(variants, r.Variant)
		}
		if !seenL[r.Label] {
			seenL[r.Label] = true
			labels = append(labels, r.Label)
		}
		cells[[2]string{r.Label, r.Variant}] = r
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s", "size")
	for _, v := range variants {
		fmt.Fprintf(&b, "%16s", v)
	}
	fmt.Fprintf(&b, "%10s\n", "rows")
	for _, l := range labels {
		fmt.Fprintf(&b, "%-18s", l)
		rows := -1
		for _, v := range variants {
			c, ok := cells[[2]string{l, v}]
			switch {
			case !ok:
				fmt.Fprintf(&b, "%16s", "-")
			case c.Skipped:
				fmt.Fprintf(&b, "%16s", "DNF*")
			default:
				fmt.Fprintf(&b, "%16s", c.Elapsed.Round(10*time.Microsecond))
				rows = c.Rows
			}
		}
		if rows >= 0 {
			fmt.Fprintf(&b, "%10d", rows)
		}
		b.WriteByte('\n')
	}
	var notes []string
	noted := map[string]bool{}
	for _, r := range results {
		if r.Skipped && r.SkipNote != "" && !noted[r.SkipNote] {
			noted[r.SkipNote] = true
			notes = append(notes, r.SkipNote)
		}
	}
	sort.Strings(notes)
	for _, n := range notes {
		fmt.Fprintf(&b, "DNF*: %s\n", n)
	}
	return b.String()
}
