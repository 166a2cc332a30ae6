// Quickstart: create tables, insert the paper's Figure 1 data, and run
// Example 2.1 — "on an hourly basis, what fraction of the traffic is
// due to web traffic?" — comparing all four evaluation strategies.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	gmdj "github.com/olaplab/gmdj"
)

// load creates the paper's Figure 1 input tables.
func load(db *gmdj.DB) {
	db.MustCreateTable("Hours",
		gmdj.Col("HourDsc", gmdj.Int),
		gmdj.Col("StartInterval", gmdj.Int),
		gmdj.Col("EndInterval", gmdj.Int))
	db.MustInsert("Hours",
		[]any{1, 0, 60},
		[]any{2, 61, 120},
		[]any{3, 121, 180})

	db.MustCreateTable("Flow",
		gmdj.Col("StartTime", gmdj.Int),
		gmdj.Col("Protocol", gmdj.String),
		gmdj.Col("NumBytes", gmdj.Int))
	db.MustInsert("Flow",
		[]any{43, "HTTP", 12},
		[]any{86, "HTTP", 36},
		[]any{99, "FTP", 48},
		[]any{132, "HTTP", 24},
		[]any{156, "HTTP", 24},
		[]any{161, "FTP", 48})
}

func main() {
	db := gmdj.Open()
	load(db)

	// Example 2.1 expressed with subqueries: per hour, HTTP bytes and
	// total bytes. (The engine's rewriter turns the correlated
	// aggregate subqueries into a single coalesced GMDJ — one scan of
	// Flow — under the GMDJOpt strategy.)
	query := `
	  SELECT h.HourDsc,
	         SUM(f.NumBytes) AS total
	  FROM Hours h, Flow f
	  WHERE f.StartTime >= h.StartInterval AND f.StartTime < h.EndInterval
	  GROUP BY h.HourDsc`

	res, err := db.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Total bytes per hour:")
	for _, row := range res.Rows {
		fmt.Printf("  hour %v: %v bytes\n", row[0], row[1])
	}

	// The paper's headline construct: hours in which some flow exceeds
	// the hour's average — a correlated aggregate subquery.
	subquery := `
	  SELECT h.HourDsc FROM Hours h
	  WHERE 30 < (SELECT AVG(f.NumBytes) FROM Flow f
	              WHERE f.StartTime >= h.StartInterval
	                AND f.StartTime < h.EndInterval)`

	fmt.Println("\nHours with average flow size above 30 bytes:")
	for _, s := range []gmdj.Strategy{gmdj.Native, gmdj.Unnest, gmdj.GMDJ, gmdj.GMDJOpt} {
		res, err := db.QueryStrategy(subquery, s)
		if err != nil {
			log.Fatal(err)
		}
		var hours []any
		for _, row := range res.Rows {
			hours = append(hours, row[0])
		}
		fmt.Printf("  %-8v -> %v\n", s, hours)
	}

	// Show the plan the optimized GMDJ strategy runs.
	plan, err := db.Explain(subquery, gmdj.GMDJOpt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nGMDJOpt physical plan:")
	fmt.Print(plan)

	// Query governance: budgets and cancellation. A budget is set when
	// the database is opened and bounds every query on it; errors are
	// typed, so callers can tell a governed abort from a genuine failure.
	governed := gmdj.Open(gmdj.WithBudget(gmdj.Budget{Timeout: 5 * time.Second, MaxRows: 2}))
	load(governed)
	_, err = governed.Query(query)
	switch {
	case errors.Is(err, gmdj.ErrRowBudget):
		fmt.Println("\nGovernance: row budget aborted the query, as configured:")
		fmt.Println("  ", err)
	case err != nil:
		log.Fatal(err)
	}

	// Per-call cancellation via context: QueryContext aborts mid-scan
	// when the context is done and reports gmdj.ErrCanceled.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, query); errors.Is(err, gmdj.ErrCanceled) {
		fmt.Println("Governance: canceled context aborted the query:")
		fmt.Println("  ", err)
	}
}
