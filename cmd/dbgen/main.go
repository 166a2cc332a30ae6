// Command dbgen writes the synthetic experiment datasets as a directory
// of CSV files with .schema sidecars (storage.SaveDir; gmdj.OpenDir reads
// it back), mirroring the role of the TPC-R dbgen program the paper
// derived its test databases from.
//
// Usage:
//
//	dbgen -schema tpcr -out ./data -scale 1.0 [-seed 7]
//	dbgen -schema netflow -out ./data -scale 0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/storage"
)

func main() {
	schema := flag.String("schema", "tpcr", "dataset schema: tpcr or netflow")
	out := flag.String("out", ".", "output directory")
	scale := flag.Float64("scale", 1.0, "size multiplier over the defaults")
	seed := flag.Uint64("seed", 7, "PRNG seed")
	flag.Parse()

	var cat *storage.Catalog
	switch *schema {
	case "tpcr":
		opts := datagen.DefaultTPCR()
		opts.Customers = int(float64(opts.Customers) * *scale)
		opts.Orders = int(float64(opts.Orders) * *scale)
		opts.Lineitems = int(float64(opts.Lineitems) * *scale)
		opts.Seed = *seed
		cat = datagen.TPCR(opts)
	case "netflow":
		opts := datagen.DefaultNetflow()
		opts.Flows = int(float64(opts.Flows) * *scale)
		opts.Seed = *seed
		cat = datagen.Netflow(opts)
	default:
		fmt.Fprintf(os.Stderr, "dbgen: unknown schema %q\n", *schema)
		os.Exit(2)
	}

	if err := storage.SaveDir(cat, *out); err != nil {
		fmt.Fprintln(os.Stderr, "dbgen:", err)
		os.Exit(1)
	}
	for _, name := range cat.Names() {
		t, err := cat.Table(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dbgen:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", filepath.Join(*out, name+".csv"), t.Rel.Len())
	}
}
