// Command olapcheck is the harnesses' validator: one binary, three
// subcommands, each documented on its run function.
//
//	olapcheck prom   [flags] [file]       validate a /metrics scrape
//	olapcheck bundle [flags] dir|profile  validate an incident bundle or a pprof profile
//	olapcheck store  -dir DIR load|churn|verify|segments [flags]
//	                                      crash/recovery torture driver
//
// Exit codes, for every subcommand: 0 all checks pass, 1 a check
// failed, 2 usage.
package main

import (
	"fmt"
	"os"
)

func main() {
	run := map[string]func([]string) int{"prom": runProm, "bundle": runBundle, "store": runStore}
	if len(os.Args) < 2 || run[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: olapcheck {prom|bundle|store} [flags] [args]")
		os.Exit(2)
	}
	os.Exit(run[os.Args[1]](os.Args[2:]))
}
