package main

// The three workloads. Each is a closed loop: a client sends its next query
// only after the previous reply arrived. A client's queries come from a
// fixed sequence seeded by (seed, client), so the same seed replays the
// same queries in the same order whatever the timing.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/tpch"
	"repro/internal/value"
)

// op is one query a client issues.
type op struct {
	shape string // label of the query shape (per-shape latency medians)
	// sql is the query text; with params it is a prepared statement.
	sql    string
	params map[string]value.Value
	// plainSQL is the same query with every parameter inlined, for the
	// plaintext reference engine.
	plainSQL string
	// ordered reports that the query fixes its row order (ORDER BY), so
	// the correctness check compares rows in order.
	ordered bool
}

// domain is the key and date range the lookup and export parameters are
// drawn from, read from the plaintext database after generation.
type domain struct {
	minKey, maxKey   int64
	minDate, maxDate int64 // days since the epoch
}

// domainSQL reads a domain from the plaintext orders table.
const domainSQL = `SELECT MIN(o_orderkey), MAX(o_orderkey), MIN(o_orderdate), MAX(o_orderdate) FROM orders`

// workload describes one benchmark workload.
type workload struct {
	name string
	// sf is the TPC-H scale factor of the generated database.
	sf float64
	// backend is "mem" or "disk"; served deployments run over loopback TCP.
	backend string
	served  bool
	clients int
	// cacheBytes is the disk backend's per-table block-cache capacity.
	cacheBytes int64
	// tables are the encrypted tables the queries read; on the disk
	// backend each must be larger than its block cache.
	tables []string
	// shapes are the workload's query shapes, added to the TPC-H queries
	// the designer plans for.
	shapes map[string]string
	// deck draws one op per card; a client's stream deals the deck over
	// and over, each time in a fresh seeded order, so every deck's worth
	// of ops has the same mix of shapes. A shape's share is its number of
	// cards.
	deck []draw
	// warm and block are per-client op counts, multiples of the deck
	// size: warm-up ops run before the timed window, and the first block
	// of the window is the fixed sequence the count metrics are taken
	// over. The window runs whole blocks until its time is up.
	warm, block int
	// checkEvery samples one count-block op in checkEvery for the
	// correctness check (0 = none); every warm-up op is checked.
	checkEvery int
}

// draw makes one op with parameters drawn from rng.
type draw func(rng *rand.Rand, d domain) op

var workloads = map[string]*workload{
	"tpch": {
		name: "tpch",
		sf:   0.005, backend: "mem", clients: 1,
		deck: tpchDeck(),
		warm: 19, block: 19,
	},
	"lookup": {
		name: "lookup",
		sf:   0.005, backend: "disk", served: true, clients: 2,
		cacheBytes: 256 << 10,
		tables:     []string{"orders"},
		shapes: map[string]string{
			"lookup_point": strings.Replace(lookupPointSQL, ":k", "1", 1),
			"lookup_range": strings.NewReplacer(":a", "date '1995-01-01'", ":b", "date '1995-01-01'").Replace(lookupRangeSQL),
		},
		// 80% point lookups, 20% ranges.
		deck: []draw{lookupPoint, lookupPoint, lookupPoint, lookupPoint, lookupRange},
		warm: 40, block: 400, checkEvery: 10,
	},
	"export": {
		name: "export",
		sf:   0.005, backend: "mem", served: true, clients: 1,
		shapes: exportDesignShapes(),
		deck:   exportDeck(),
		warm:   len(exportShapes), block: 24, checkEvery: 3,
	},
}

// workloadNames lists the workloads in a stable order.
func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// designWorkload is the designer's input: the TPC-H queries plus the
// workload's own shapes.
func (w *workload) designWorkload() map[string]string {
	out := tpchWorkload()
	for label, sql := range w.shapes {
		out[label] = sql
	}
	return out
}

// tpchWorkload labels the supported TPC-H queries for the designer.
func tpchWorkload() map[string]string {
	out := make(map[string]string)
	for _, n := range tpch.SupportedQueries() {
		out[fmt.Sprintf("Q%02d", n)] = tpch.Queries[n]
	}
	return out
}

// stream returns client c's op stream for one phase of the run (warm-up or
// timed window); the same (seed, client, phase) yields the same ops.
func (w *workload) stream(seed int64, c int, phase int64, d domain) func() op {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7_919 + phase))
	var order []int
	return func() op {
		if len(order) == 0 {
			order = rng.Perm(len(w.deck))
		}
		card := w.deck[order[0]]
		order = order[1:]
		return card(rng, d)
	}
}

// tpchDeck holds each supported TPC-H query once: a deck is one pass.
func tpchDeck() []draw {
	var deck []draw
	for _, n := range tpch.SupportedQueries() {
		sql := tpch.Queries[n]
		o := op{
			shape: fmt.Sprintf("Q%02d", n), sql: sql, plainSQL: sql,
			ordered: strings.Contains(strings.ToUpper(sql), "ORDER BY"),
		}
		deck = append(deck, func(*rand.Rand, domain) op { return o })
	}
	return deck
}

const (
	lookupCols     = `o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate, o_orderpriority, o_shippriority`
	lookupPointSQL = `SELECT ` + lookupCols + ` FROM orders WHERE o_orderkey = :k`
	lookupRangeSQL = `SELECT ` + lookupCols + ` FROM orders WHERE o_orderdate BETWEEN :a AND :b`
)

// lookupPoint is a prepared DET point lookup on a seeded o_orderkey.
func lookupPoint(rng *rand.Rand, d domain) op {
	k := d.minKey + rng.Int63n(d.maxKey-d.minKey+1)
	return op{
		shape: "point", sql: lookupPointSQL,
		params:   map[string]value.Value{"k": value.NewInt(k)},
		plainSQL: strings.Replace(lookupPointSQL, ":k", fmt.Sprint(k), 1),
	}
}

// lookupRange is a prepared one-day OPE range on o_orderdate.
func lookupRange(rng *rand.Rand, d domain) op {
	day := d.minDate + rng.Int63n(d.maxDate-d.minDate+1)
	lit := "date '" + value.FormatDate(day) + "'"
	return op{
		shape: "range", sql: lookupRangeSQL,
		params:   map[string]value.Value{"a": value.NewDate(day), "b": value.NewDate(day)},
		plainSQL: strings.NewReplacer(":a", lit, ":b", lit).Replace(lookupRangeSQL),
	}
}

// exportShape is one ad hoc export query with two date literals, %[1]s and
// %[2]s, spanning span days from a seeded start.
type exportShape struct {
	name    string
	sql     string
	span    int64
	ordered bool
}

// exportShapes return thousands of rows each. Their date ranges cover more
// than a quarter of the table, so the engine scans instead of probing the
// OPE index.
var exportShapes = []exportShape{
	{name: "wide", span: 800, sql: `SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate, o_orderstatus, o_orderpriority FROM orders
    WHERE o_orderdate >= date '%[1]s' AND o_orderdate < date '%[2]s'`},
	{name: "distinct", span: 900, sql: `SELECT DISTINCT l_partkey, l_suppkey FROM lineitem
    WHERE l_shipdate >= date '%[1]s' AND l_shipdate < date '%[2]s'`},
	{name: "groups", span: 900, sql: `SELECT l_orderkey, COUNT(*) AS n FROM lineitem
    WHERE l_shipdate >= date '%[1]s' AND l_shipdate < date '%[2]s' GROUP BY l_orderkey`},
	{name: "sorted", span: 800, ordered: true, sql: `SELECT o_orderkey, o_totalprice, o_orderpriority FROM orders
    WHERE o_orderdate >= date '%[1]s' AND o_orderdate < date '%[2]s'
    ORDER BY o_totalprice DESC, o_orderkey`},
}

// exportDesignShapes gives the designer one representative of each export
// shape.
func exportDesignShapes() map[string]string {
	out := make(map[string]string, len(exportShapes))
	for _, s := range exportShapes {
		out["export_"+s.name] = fmt.Sprintf(s.sql, "1994-01-01", "1996-01-01")
	}
	return out
}

// exportDeck holds each export shape once, with a seeded date range
// inlined in the SQL text.
func exportDeck() []draw {
	var deck []draw
	for _, s := range exportShapes {
		s := s
		deck = append(deck, func(rng *rand.Rand, d domain) op {
			lo := d.minDate + rng.Int63n(d.maxDate-d.minDate-s.span+1)
			sql := fmt.Sprintf(s.sql, value.FormatDate(lo), value.FormatDate(lo+s.span))
			return op{shape: s.name, sql: sql, plainSQL: sql, ordered: s.ordered}
		})
	}
	return deck
}
