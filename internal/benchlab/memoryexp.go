package benchlab

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/engine"
	"github.com/olaplab/gmdj/internal/govern"
	"github.com/olaplab/gmdj/internal/sql"
)

// memoryPoolBytes is the constrained pool for the spill and kill arms:
// small enough that every size's GMDJ base state (Hours rows x ~200
// bytes of estimated state) overflows it and the engine must degrade.
const memoryPoolBytes = 48 << 10

// memoryQuery is the Example 2.3-shaped hour/flow workload: the GMDJ
// base is the Hours dimension, whose per-row hash state is what the
// memory pool squeezes.
const memoryQuery = `SELECT h.HourDsc FROM Hours h WHERE EXISTS (
  SELECT * FROM Flow f
  WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
    AND f.Protocol = 'FTP')`

// Memory is the constrained-memory trajectory experiment: the same
// workload under three memory regimes —
//
//	unlimited — no pool; the baseline every degradation is judged
//	            against;
//	spill     — a 48 KiB pool with a scratch store: the GMDJ base
//	            state partitions by hash prefix and spills cold
//	            partitions, paying one extra detail scan per spilled
//	            partition (1+k scans) but finishing with identical
//	            rows;
//	kill      — the same pool with spilling disabled: exhaustion is a
//	            typed ErrMemBudget, recorded as a DNF cell — the
//	            pre-spill behavior the degradation replaces.
func (r *Runner) Memory() *Experiment {
	exp := &Experiment{
		ID:    "memory",
		Title: "Constrained-memory trajectories: unlimited vs spill-to-disk vs kill on the hour/flow workload",
		Sizes: []Size{
			{Label: "500 hours", Outer: 500, Inner: r.scaleN(32_000)},
			{Label: "1000 hours", Outer: 1000, Inner: r.scaleN(64_000)},
			{Label: "2000 hours", Outer: 2000, Inner: r.scaleN(128_000)},
		},
		Variants: []Variant{
			{Name: "unlimited", Strategy: engine.GMDJOpt},
			{Name: "spill", Strategy: engine.GMDJOpt},
			{Name: "kill", Strategy: engine.GMDJOpt},
		},
	}
	exp.Run = r.runMemory
	return exp
}

// runMemory measures one (size, variant) cell of the memory
// experiment. The outer count is the Hours dimension (the GMDJ base);
// the inner count is Flow rows.
func (r *Runner) runMemory(_ *Runner, exp *Experiment, s Size, v Variant) (Result, error) {
	res := Result{Figure: exp.ID, Variant: v.Name, Label: s.Label, Outer: s.Outer, Inner: s.Inner}
	cat := datagen.Netflow(datagen.NetflowOpts{Flows: s.Inner, Hours: s.Outer, Users: 40, Seed: 11})
	opts := []engine.Option{r.config(v)}
	switch v.Name {
	case "spill":
		dir, err := os.MkdirTemp("", "gmdj-bench-spill-")
		if err != nil {
			return res, fmt.Errorf("memory/spill: %w", err)
		}
		defer os.RemoveAll(dir)
		opts = append(opts, func(c *engine.Config) { c.MemoryLimit, c.SpillDir = memoryPoolBytes, dir })
	case "kill": // exhaustion aborts instead of degrading
		opts = append(opts, func(c *engine.Config) { c.MemoryLimit, c.SpillDir = memoryPoolBytes, "" })
	}
	eng := engine.New(cat, opts...)
	defer eng.Close()

	plan, err := sql.ParseAndResolve(memoryQuery, eng)
	if err != nil {
		return res, fmt.Errorf("memory/%s: %w", v.Name, err)
	}
	physical, err := eng.Plan(plan, v.Strategy)
	if err != nil {
		return res, fmt.Errorf("memory/%s: planning: %w", v.Name, err)
	}

	repeat := r.Repeat
	if repeat < 1 {
		repeat = 1
	}
	best := time.Duration(0)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		out, err := eng.Run(physical, engine.Native) // already rewritten
		if err != nil {
			if errors.Is(err, govern.ErrMemBudget) {
				res.Skipped = true
				res.SkipNote = fmt.Sprintf("memory kill regime: %d KiB pool with spilling disabled (%v)",
					memoryPoolBytes>>10, govern.ErrMemBudget)
				return res, nil
			}
			if errors.Is(err, govern.ErrTimeout) || errors.Is(err, govern.ErrRowBudget) {
				res.Skipped = true
				res.SkipNote = fmt.Sprintf("exceeded runner budget (%v)", err)
				return res, nil
			}
			return res, fmt.Errorf("memory/%s: %w", v.Name, err)
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
			return res, fmt.Errorf("memory/%s: observed run: %w", v.Name, err)
		}
		res.Stats = root
		res.Counters = root.Totals()
	}
	return res, nil
}
