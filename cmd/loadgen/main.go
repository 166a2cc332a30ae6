// Command loadgen drives olapd with a declarative JSON scenario: a
// sequence of steps, each a worker pool issuing a weighted query mix
// with optional concurrency ramps, per-request timeouts, think time,
// and client-abort storms (a fraction of requests hang up early, the
// cancellation-storm case).
//
// Usage:
//
//	loadgen -scenario scenarios/cancel_storm.json [-target http://127.0.0.1:8080]
//	        [-bench out/BENCH_serve.json] [-baseline BENCH_serve.json]
//	        [-tolerance 0.5] [-commit sha] [-q]
//
// Outcome accounting is the point: every response must be either 200
// or a typed error from the serving taxonomy (kind, exit_code,
// retryable). Any other outcome — a panic page, a truncated body, a
// hung connection not explained by a client abort — counts as
// non-typed and fails the run with exit 1. Client aborts and shed
// requests (429/503) are expected outcomes under chaos, not failures.
//
// A scenario may declare per-tenant SLOs (availability target, p99
// bound, max error-budget burn); loadgen evaluates them against the
// run's typed outcomes — the client-side twin of the server's
// /metrics burn gauges — and fails with exit 4 when an objective is
// violated.
//
// -bench writes per-step p50/p99/mean latency cells in the repo's
// bench-trajectory JSON format for plots over commits; -baseline
// compares the fresh cells against a committed trajectory with the
// same exit-3 regression contract as scripts/bench_trajectory.sh
// (cells slower than base*(1+tolerance)+5ms flag).
//
// Exit codes: 0 all steps completed with zero non-typed outcomes and
// all objectives held, 1 non-typed outcomes or run error, 2 usage,
// 3 latency regression against -baseline, 4 SLO violation.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/olaplab/gmdj/internal/benchlab"
	"github.com/olaplab/gmdj/internal/loadflow"
	"github.com/olaplab/gmdj/internal/serve"
)

const (
	exitOK      = 0
	exitFail    = 1
	exitUsage   = 2
	exitRegress = 3
	exitSLO     = 4
)

// regressionSlack is the absolute per-cell grace on top of the
// relative tolerance: serve-side latencies ride the OS scheduler and
// the network stack, so sub-5ms baseline cells would otherwise flag on
// noise alone.
const regressionSlack = 5 * time.Millisecond

func main() {
	os.Exit(run())
}

func run() int {
	scenarioPath := flag.String("scenario", "", "scenario JSON file (required)")
	target := flag.String("target", "", "olapd base URL (overrides the scenario's target)")
	benchOut := flag.String("bench", "", "write per-step latency cells as bench-trajectory JSON to this file")
	baseline := flag.String("baseline", "", "compare fresh latency cells against this bench-trajectory JSON (exit 3 on regression)")
	tolerance := flag.Float64("tolerance", 0.5, "relative slowdown tolerated by -baseline before a cell flags (0.5 = 50%)")
	commit := flag.String("commit", "", "commit sha recorded in -bench output")
	quiet := flag.Bool("q", false, "suppress progress output")
	flag.Parse()

	if *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "loadgen: -scenario is required")
		return exitUsage
	}
	src, err := os.ReadFile(*scenarioPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return exitUsage
	}
	sc, err := loadflow.ParseScenario(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return exitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	r := &loadflow.Runner{
		Target:     *target,
		KnownKinds: serve.KnownKinds(),
	}
	if !*quiet {
		r.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
		}
	}
	res, err := r.Run(ctx, sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return exitFail
	}

	out := json.NewEncoder(os.Stdout)
	out.SetIndent("", "  ")
	_ = out.Encode(res)

	traj := buildTrajectory(*commit, res)
	if *benchOut != "" {
		if err := writeBench(*benchOut, traj); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return exitFail
		}
	}

	var nonTyped int64
	for _, st := range res.Steps {
		nonTyped += st.NonTyped
		for _, s := range st.NonTypedSamples {
			fmt.Fprintf(os.Stderr, "loadgen: non-typed outcome in %q: %s\n", st.Name, s)
		}
	}
	if nonTyped > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: FAIL: %d non-typed outcomes\n", nonTyped)
		return exitFail
	}

	// SLO objectives, evaluated before the latency baseline: burning the
	// error budget is a correctness-of-service failure, a slow step is
	// "only" a regression.
	violated := false
	for _, o := range loadflow.EvaluateSLOs(sc, res, serve.ServerFailureKinds()) {
		fmt.Fprintf(os.Stderr, "loadgen: slo %q: availability %.4f burn %.2f p99 %v over %d requests\n",
			o.Tenant, o.Availability, o.Burn, o.P99, o.Requests)
		for _, v := range o.Violations {
			violated = true
			fmt.Fprintln(os.Stderr, "loadgen: SLO VIOLATION:", v)
		}
	}
	if violated {
		return exitSLO
	}

	if *baseline != "" {
		regs, err := compareBaseline(*baseline, traj, *tolerance)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return exitFail
		}
		if len(regs) > 0 {
			for _, reg := range regs {
				fmt.Fprintln(os.Stderr, "loadgen: REGRESSION:", reg)
			}
			return exitRegress
		}
		fmt.Fprintf(os.Stderr, "loadgen: baseline %s held (tolerance %.0f%% + %v)\n",
			*baseline, *tolerance*100, regressionSlack)
	}
	return exitOK
}

// buildTrajectory reduces the run to the repo's bench-trajectory
// shape: one cell per (step, percentile), with the step name as the
// strategy axis and the request/ok counts riding the work counters.
func buildTrajectory(commit string, res *loadflow.Result) benchlab.Trajectory {
	traj := benchlab.Trajectory{Commit: commit, Figure: "serve:" + res.Scenario, Scale: 1}
	for _, st := range res.Steps {
		mean := int64(0)
		if st.Latency.Count > 0 {
			mean = st.Latency.Sum / st.Latency.Count
		}
		for _, cell := range []struct {
			label string
			v     int64
		}{
			{"p50", st.Latency.P50},
			{"p99", st.Latency.P99},
			{"mean", mean},
		} {
			traj.Cells = append(traj.Cells, benchlab.TrajectoryCell{
				Strategy:    st.Name,
				Label:       cell.label,
				NsPerOp:     cell.v,
				RowsScanned: st.Requests,
				Probes:      st.OK,
			})
		}
	}
	return traj
}

func writeBench(path string, traj benchlab.Trajectory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return benchlab.WriteTrajectory(f, traj)
}

func compareBaseline(path string, current benchlab.Trajectory, tolerance float64) ([]benchlab.Regression, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	base, err := benchlab.ReadTrajectory(f)
	if err != nil {
		return nil, err
	}
	if base.Figure != current.Figure {
		return nil, fmt.Errorf("baseline figure %q does not match run figure %q", base.Figure, current.Figure)
	}
	return benchlab.CompareTrajectories(base, current, tolerance, regressionSlack), nil
}
