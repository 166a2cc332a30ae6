// Command bench is the repository's benchmark: five workloads driven
// the way the system's users drive it (SQL text into gmdj.DB.Query,
// HTTP/JSON into the serving layer), four end-to-end metrics, and a
// traced pass that attributes a query's time to the layers it passes
// through. See README.md beside this file.
//
//	bench -workload hash_scan -seed 1 -seconds 15 -trace 0
//	bench -workload all -out bench/out/a.jsonl
//	bench compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed for data generation, literal choice and operation order")
	seconds := fs.Float64("seconds", 15, "how long the timed sequence (or the traced pass) runs")
	trace := fs.Int("trace", 0, "0: timed sequence, end-to-end metrics; 1: traced pass, per-layer metrics")
	scale := fs.Float64("scale", 1, "table-size factor (the tests use 0.01)")
	outDir := fs.String("dir", "bench/out", "directory for scratch data and trace files")
	out := fs.String("out", "", "append each run's full record to this file as a JSON line (input of `bench compare`)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-out file] | bench compare A B")
		return 2
	}
	if err := checkEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		rec, err := runWorkload(config{workload: name, seed: *seed, seconds: *seconds, trace: *trace,
			scale: *scale, outDir: *outDir, log: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		// The last line of a run is the result the driver parses.
		line, err := json.Marshal(map[string]any{
			"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": rec.Metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
