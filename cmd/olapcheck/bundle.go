package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/olaplab/gmdj/internal/obs/profile"
)

// olapcheck bundle validates an incident flight-recorder bundle or
// a raw pprof profile — the chaos harness's guard that a forced
// incident produced a complete, internally consistent bundle and that
// CPU profiles captured under load actually carry the per-tenant pprof
// labels.
//
// Usage:
//
//	olapcheck bundle [-require m1,m2] [-cpu-labels k1,k2] bundle-dir
//	olapcheck bundle [-labels k1,k2] profile.pprof
//
// A directory argument is checked as a bundle:
//
//   - MANIFEST.json parses, its version is known, and every member it
//     lists exists with the recorded size and FNV-32a checksum; no
//     stray files sit next to the manifest.
//   - Each member's content matches its extension: .prom is a valid
//     Prometheus exposition, .json parses, .pprof parses as a profile,
//     .txt is non-empty.
//   - -require: the named members must be present and captured without
//     error (a member whose source failed is recorded in the manifest
//     and tolerated unless required).
//   - -cpu-labels: the bundle's cpu.pprof must attribute at least one
//     sample to each named label key (vacuously true when the capture
//     holds no samples — an idle process profiles clean).
//
// A file argument is parsed as a pprof profile (gzipped or raw); with
// -labels every named key must appear on at least one sample. This is
// the mode the storm harness uses on a mid-storm /debug/pprof/profile
// fetch, where samples are guaranteed and the label check is strict.
func runBundle(args []string) int {
	fs := flag.NewFlagSet("olapcheck bundle", flag.ExitOnError)
	require := fs.String("require", "", "comma-separated bundle members that must be present and error-free")
	cpuLabels := fs.String("cpu-labels", "", "comma-separated label keys the bundle's cpu.pprof must carry (when it has samples)")
	labels := fs.String("labels", "", "comma-separated label keys a profile file must carry on at least one sample")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "olapcheck bundle: exactly one bundle directory or profile file")
		return 2
	}
	target := fs.Arg(0)
	fi, err := os.Stat(target)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck bundle:", err)
		return 2
	}

	if fi.IsDir() {
		return checkBundle(target, splitList(*require), splitList(*cpuLabels))
	}
	return checkProfileFile(target, splitList(*labels))
}

func checkBundle(dir string, required, cpuKeys []string) int {
	if err := profile.ValidateBundle(dir, required); err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck bundle:", err)
		return 1
	}
	if len(cpuKeys) > 0 {
		if err := profile.CheckCPULabels(dir, cpuKeys); err != nil {
			fmt.Fprintln(os.Stderr, "olapcheck bundle:", err)
			return 1
		}
	}
	m, err := profile.ReadManifest(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck bundle:", err)
		return 1
	}
	fmt.Printf("olapcheck bundle: ok (trigger %s, %d members)\n", m.Trigger, len(m.Files))
	return 0
}

func checkProfileFile(path string, keys []string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck bundle:", err)
		return 2
	}
	p, err := profile.ParseProfile(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "olapcheck bundle: %s: %v\n", path, err)
		return 1
	}
	if len(keys) > 0 && len(p.Samples) == 0 {
		fmt.Fprintf(os.Stderr, "olapcheck bundle: %s: no samples to carry labels\n", path)
		return 1
	}
	status := 0
	for _, k := range keys {
		if !p.HasLabelKey(k) {
			fmt.Fprintf(os.Stderr, "olapcheck bundle: %s: no sample carries label %q\n", path, k)
			status = 1
		}
	}
	if status == 0 {
		fmt.Printf("olapcheck bundle: ok (%d samples)\n", len(p.Samples))
	}
	return status
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
