// TPCR: decision-support subqueries on the TPC-R-like warehouse — the
// kind of workload the paper benchmarks (Figures 2 and 3), with timing
// across strategies and an index-sensitivity check.
package main

import (
	"fmt"
	"log"
	"time"

	gmdj "github.com/olaplab/gmdj"
)

func main() {
	db := gmdj.OpenTPCRSample(2.0) // 2000 customers, 20k orders, 80k lineitems

	// Figure 2's query class: customers with at least one very large
	// order (EXISTS).
	exists := `
	  SELECT c.c_custkey FROM customer c
	  WHERE EXISTS (SELECT * FROM orders o
	                WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 400000)`

	// Figure 3's query class: comparison against a correlated
	// aggregate — customers whose balance (×25) beats their average
	// order price.
	aggCmp := `
	  SELECT c.c_custkey FROM customer c
	  WHERE c.c_acctbal * 25 > (SELECT AVG(o.o_totalprice) FROM orders o
	                            WHERE o.o_custkey = c.c_custkey)`

	// A NOT IN over a filtered projection (≠-ALL under the hood).
	notIn := `
	  SELECT c.c_custkey FROM customer c
	  WHERE c.c_custkey NOT IN (SELECT o.o_custkey FROM orders o
	                            WHERE o.o_orderstatus = 'F')`

	run := func(name, q string) {
		fmt.Printf("%s:\n", name)
		for _, s := range []gmdj.Strategy{gmdj.Native, gmdj.Unnest, gmdj.GMDJ, gmdj.GMDJOpt} {
			start := time.Now()
			res, err := db.QueryStrategy(q, s)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %-8v: %5d rows in %8v\n", s, res.Len(), time.Since(start).Round(time.Microsecond))
		}
	}

	run("EXISTS (Figure 2 class)", exists)
	run("aggregate comparison (Figure 3 class)", aggCmp)
	run("NOT IN", notIn)

	// Index sensitivity: native depends on the o_custkey index, GMDJ
	// does not (the paper's Figure 5 point).
	if err := db.BuildHashIndex("orders", "o_custkey"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith hash index on orders.o_custkey:")
	run("EXISTS again", exists)

	if err := db.DropIndexes("orders"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwith indexes dropped (GMDJ should be unaffected):")
	run("EXISTS again", exists)
}
