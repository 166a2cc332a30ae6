package main

import (
	"fmt"
	"math"

	gmdj "github.com/olaplab/gmdj"
	"github.com/olaplab/gmdj/internal/datagen"
	"github.com/olaplab/gmdj/internal/relation"
	"github.com/olaplab/gmdj/internal/storage"
	"github.com/olaplab/gmdj/internal/value"
)

// table is one generated input table. The harness keeps rows in the
// []any form gmdj.DB.Insert takes, because that is the form a user of
// the library hands over; the traced pass converts the same rows into
// an internal catalog so both paths see identical data.
type table struct {
	name string
	cols []gmdj.Column
	rows [][]any
}

// csvBytes is the size of the rows written as CSV (no header): the
// "user bytes" that storage write and space amplification are divided
// by.
func csvBytes(rows [][]any) int64 {
	var n int64
	for _, r := range rows {
		for _, v := range r {
			n += int64(len(fmt.Sprint(v))) + 1 // cell plus its separator or newline
		}
	}
	return n
}

// load creates t in db and inserts its rows through the public API.
func (t *table) load(db *gmdj.DB) error {
	if err := db.CreateTable(t.name, t.cols...); err != nil {
		return err
	}
	return db.Insert(t.name, t.rows...)
}

func kindOf(t gmdj.Type) value.Kind {
	switch t {
	case gmdj.Int:
		return value.KindInt
	case gmdj.Float:
		return value.KindFloat
	case gmdj.String:
		return value.KindString
	default:
		return value.KindBool
	}
}

// toTuple converts one generated row into the engine's tuple form. The
// generators only emit int64, float64 and string cells.
func toTuple(row []any) relation.Tuple {
	out := make(relation.Tuple, len(row))
	for i, v := range row {
		switch x := v.(type) {
		case int64:
			out[i] = value.Int(x)
		case float64:
			out[i] = value.Float(x)
		case string:
			out[i] = value.Str(x)
		default:
			panic(fmt.Sprintf("bench: generator emitted %T", v))
		}
	}
	return out
}

// register adds t to an internal catalog (the traced pass's copy).
func (t *table) register(cat *storage.Catalog) {
	cols := make([]relation.Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = relation.Column{Qualifier: t.name, Name: c.Name, Type: kindOf(c.Type)}
	}
	rel := relation.New(relation.NewSchema(cols...))
	for _, r := range t.rows {
		rel.Append(toTuple(r))
	}
	cat.Register(storage.NewTable(t.name, rel))
}

// appendRows adds rows to a catalog table the way gmdj.DB.Insert does.
func appendRows(cat *storage.Catalog, name string, rows [][]any) error {
	t, err := cat.Table(name)
	if err != nil {
		return err
	}
	for _, r := range rows {
		t.Rel.Append(toTuple(r))
	}
	t.BumpVersion()
	return nil
}

var orderStatuses = []string{"O", "F", "P"}

// Price and balance ranges follow internal/datagen's TPC-R shapes, so
// the paper's literals (400 000, acctbal*25) select the fractions the
// figures were built around.
const (
	priceMin   = 1_000.0
	priceRange = 45_000_000 // cents above priceMin
)

func customerTable(rng *datagen.PRNG, n int) *table {
	t := &table{name: "customer", cols: []gmdj.Column{
		gmdj.Col("c_custkey", gmdj.Int), gmdj.Col("c_name", gmdj.String),
		gmdj.Col("c_acctbal", gmdj.Float), gmdj.Col("c_mktsegment", gmdj.String),
	}}
	segments := []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	for i := 0; i < n; i++ {
		t.rows = append(t.rows, []any{
			int64(i + 1), fmt.Sprintf("Customer#%09d", i+1),
			float64(rng.Int63n(1_099_999))/100 - 999.99, rng.Choice(segments),
		})
	}
	return t
}

// orderRows generates n orders with keys firstKey, firstKey+1, ...
func orderRows(rng *datagen.PRNG, firstKey int64, n, customers int) [][]any {
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			firstKey + int64(i), rng.Int63n(int64(customers)) + 1,
			priceMin + float64(rng.Int63n(priceRange))/100,
			rng.Int63n(2400), rng.Choice(orderStatuses),
		}
	}
	return rows
}

func ordersTable(rng *datagen.PRNG, n, customers int) *table {
	return &table{name: "orders", cols: []gmdj.Column{
		gmdj.Col("o_orderkey", gmdj.Int), gmdj.Col("o_custkey", gmdj.Int),
		gmdj.Col("o_totalprice", gmdj.Float), gmdj.Col("o_orderdate", gmdj.Int),
		gmdj.Col("o_orderstatus", gmdj.String),
	}, rows: orderRows(rng, 1, n, customers)}
}

// keyPairTables generates Figure 4's A(a_key, a_val) and B(b_key,
// b_val): unique keys in A, uniform keys in B, values from a domain of
// 1000 so most A rows meet a counterexample within about 1000 B rows.
func keyPairTables(rng *datagen.PRNG, n int) []*table {
	const valDomain = 1000
	a := &table{name: "A", cols: []gmdj.Column{gmdj.Col("a_key", gmdj.Int), gmdj.Col("a_val", gmdj.Int)}}
	b := &table{name: "B", cols: []gmdj.Column{gmdj.Col("b_key", gmdj.Int), gmdj.Col("b_val", gmdj.Int)}}
	for i := 0; i < n; i++ {
		a.rows = append(a.rows, []any{int64(i), rng.Int63n(valDomain)})
	}
	for i := 0; i < n; i++ {
		b.rows = append(b.rows, []any{rng.Int63n(int64(n)), rng.Int63n(valDomain)})
	}
	return []*table{a, b}
}

// literalPoolSize is the number of values each literal pool holds.
const literalPoolSize = 16

// priceAbove returns the pool of price thresholds T for "o_totalprice >
// T" such that a customer with k matching-status orders has one above T
// with probability 0.25 … 0.85. Sizing the pool from k keeps results
// selective at every table ratio (300 orders per customer on hash_scan,
// 3 on spill_bound) and at the tests' 1/100 scale; the values depend on
// sizes only, never on the seed, so every seed issues the same mix.
func priceAbove(k float64) []float64 {
	pool := make([]float64, literalPoolSize)
	for i := range pool {
		f := 0.25 + 0.6*float64(i)/float64(literalPoolSize-1)
		perOrder := 1 - math.Pow(1-f, 1/k)
		pool[i] = math.Round(priceMin + priceRange/100*(1-perOrder))
	}
	return pool
}

// priceBelow mirrors priceAbove for "o_totalprice < T".
func priceBelow(k float64) []float64 {
	pool := priceAbove(k)
	for i, t := range pool {
		pool[i] = 2*priceMin + priceRange/100 - t
	}
	return pool
}
