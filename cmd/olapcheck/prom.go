package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/olaplab/gmdj/internal/obs"
)

// storageFamilies mirrors the olap_storage_* set DB.PromCollect exports when
// a data directory is configured. -storage enforces it all-or-nothing.
var storageFamilies = []string{
	"olap_storage_generation",
	"olap_storage_tables",
	"olap_storage_quarantined_tables",
	"olap_storage_segments_written_total",
	"olap_storage_segments_recovered_total",
	"olap_storage_segments_quarantined_total",
	"olap_storage_checkpoints_total",
	"olap_storage_recoveries_total",
	"olap_storage_manifests_skipped_total",
	"olap_storage_bytes_written_total",
	"olap_storage_bytes_read_total",
}

// olapcheck prom validates a Prometheus text exposition (format
// 0.0.4) captured from olapd's /metrics — the chaos harness's guard
// that the endpoint stays parseable and honest under storm load.
//
// Usage:
//
//	olapcheck prom [-reconcile] [-quiesced] [-max-tenant-labels n]
//	               [-require fam1,fam2] [-storage] [file]
//
// With no file the exposition is read from stdin. Checks, in order:
//
//   - The document parses: TYPE declarations precede samples, counter
//     names end in _total, histogram buckets are cumulative with the
//     +Inf bucket equal to _count, label syntax and sample values are
//     well-formed (obs.ValidateExposition).
//   - -require: every named family has a TYPE declaration.
//   - -reconcile: per tenant, the response-funnel counters reconcile —
//     sum over kinds of olap_responses_total never exceeds
//     olap_requests_total (requests increment at handler entry,
//     responses at exit, so the difference is the in-flight count).
//     With -quiesced the two must be exactly equal (no traffic in
//     flight — scrape after the storm drains).
//   - -max-tenant-labels: the tenant label carries at most n distinct
//     values across the olap_* families (the server's cardinality cap
//     held, counting the "_other" fold-over series).
//   - -storage: the olap_storage_* families are exported all-or-nothing
//     (a data directory exports the full set, an in-memory server none
//     of it — a partial set means a family was added to DB.PromCollect without
//     updating this list) and, when present, reconcile: a store serving
//     tables has a committed generation, and an opened store has
//     recorded at least one recovery pass.
func runProm(args []string) int {
	fs := flag.NewFlagSet("olapcheck prom", flag.ExitOnError)
	reconcile := fs.Bool("reconcile", false, "check per-tenant requests >= sum of responses")
	quiesced := fs.Bool("quiesced", false, "with -reconcile: require exact equality (no in-flight requests)")
	maxTenantLabels := fs.Int("max-tenant-labels", 0, "fail when the tenant label has more distinct values (0 = unchecked)")
	require := fs.String("require", "", "comma-separated metric families that must be declared")
	storage := fs.Bool("storage", false, "check olap_storage_* families are all-or-nothing and reconcile")
	fs.Parse(args) // ExitOnError: a bad flag exits 2 here

	var raw []byte
	var err error
	switch fs.NArg() {
	case 0:
		raw, err = io.ReadAll(os.Stdin)
	case 1:
		raw, err = os.ReadFile(fs.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "olapcheck prom: at most one input file")
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck prom:", err)
		return 2
	}

	if err := obs.ValidateExposition(raw); err != nil {
		fmt.Fprintln(os.Stderr, "olapcheck prom: invalid exposition:", err)
		return 1
	}

	declared := map[string]bool{}
	requests := map[string]float64{}    // tenant -> olap_requests_total
	responses := map[string]float64{}   // tenant -> sum over kinds
	storageVals := map[string]float64{} // olap_storage_* family -> value
	tenants := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				declared[fields[2]] = true
			}
			continue
		}
		name, labels, v, err := obs.ParsePromSample(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "olapcheck prom: bad sample:", err)
			return 1
		}
		if t, ok := labels["tenant"]; ok && strings.HasPrefix(name, "olap_") {
			tenants[t] = true
		}
		switch name {
		case "olap_requests_total":
			requests[labels["tenant"]] += v
		case "olap_responses_total":
			responses[labels["tenant"]] += v
		}
		if strings.HasPrefix(name, "olap_storage_") {
			storageVals[name] = v
		}
	}

	status := 0
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, "olapcheck prom: "+format+"\n", a...)
		status = 1
	}
	for _, fam := range strings.Split(*require, ",") {
		fam = strings.TrimSpace(fam)
		if fam != "" && !declared[fam] {
			fail("required family %q not declared", fam)
		}
	}

	if *reconcile {
		names := make([]string, 0, len(requests))
		for t := range requests {
			names = append(names, t)
		}
		sort.Strings(names)
		for _, t := range names {
			req, resp := requests[t], responses[t]
			switch {
			case resp > req:
				fail("tenant %q: responses %.0f exceed requests %.0f", t, resp, req)
			case *quiesced && resp != req:
				fail("tenant %q: quiesced but %0.f requests unaccounted (requests %.0f, responses %.0f)",
					t, req-resp, req, resp)
			}
		}
		for t := range responses {
			if _, ok := requests[t]; !ok {
				fail("tenant %q: responses with no requests series", t)
			}
		}
	}

	if *storage {
		known := map[string]bool{}
		for _, fam := range storageFamilies {
			known[fam] = true
		}
		for fam := range storageVals {
			if !known[fam] {
				fail("storage family %q not in olapcheck's list — update both ends", fam)
			}
		}
		if len(storageVals) > 0 {
			for _, fam := range storageFamilies {
				if _, ok := storageVals[fam]; !ok {
					fail("storage families are partial: %q missing", fam)
				}
			}
			if storageVals["olap_storage_tables"] > 0 && storageVals["olap_storage_generation"] < 1 {
				fail("store serves %.0f tables at generation %.0f",
					storageVals["olap_storage_tables"], storageVals["olap_storage_generation"])
			}
			if storageVals["olap_storage_recoveries_total"] < 1 {
				fail("storage exported without a recorded recovery pass")
			}
		}
	}

	if *maxTenantLabels > 0 && len(tenants) > *maxTenantLabels {
		names := make([]string, 0, len(tenants))
		for t := range tenants {
			names = append(names, t)
		}
		sort.Strings(names)
		fail("%d tenant label values exceed cap %d: %s",
			len(tenants), *maxTenantLabels, strings.Join(names, ", "))
	}

	if status == 0 {
		fmt.Printf("olapcheck prom: ok (%d families, %d tenant labels)\n", len(declared), len(tenants))
	}
	return status
}
