// Package engine is a from-scratch analytical SQL executor. It plays the
// role Postgres plays in the paper: an unmodified DBMS that scans, joins,
// groups, and sorts — extended with user-defined functions (UDFs) so the
// untrusted server can operate on ciphertexts (PAILLIER_SUM, GROUP_CONCAT).
//
// The executor has two modes. The materialized mode (each operator
// produces a full relation) handles everything: comma joins with hash-join
// extraction, correlated and uncorrelated subqueries (with automatic
// decorrelation of equality-correlated EXISTS/IN/scalar-aggregate
// subqueries), GROUP BY/HAVING, DISTINCT, ORDER BY and LIMIT. The
// streaming mode (Engine.BatchSize > 0; see stream.go) runs subquery-free
// queries over base tables — scans and the probe side of joins, into
// projection, aggregation, DISTINCT or top-N — batch-at-a-time without
// materializing intermediates, in the spirit of vectorized analytical
// scan engines such as Polynesia's, and falls back to the materialized
// operators for everything else. Both modes shard their row loops across
// Engine.Parallelism workers (see parallel.go) and produce byte-identical
// results. The engine reports byte-accurate scan statistics that the
// MONOMI cost model converts to simulated I/O time.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Stats accumulates execution statistics for one query.
//
// A row is RowsScanned exactly once no matter which path reads it: the
// materialized scan charges the whole table up front, while a streamed scan
// charges batch by batch as it is pulled — and a streamed pipeline that
// falls back to a materialized operator mid-query (ORDER BY, DISTINCT)
// hands over the already-charged rows without re-scanning them.
type Stats struct {
	BytesScanned       int64 // heap-table bytes read by sequential scans
	ExtraBytes         int64 // bytes read outside tables (Paillier pack files)
	RowsScanned        int64 // rows produced by scans
	RowsOut            int64 // rows in the final result
	UDFNanos           int64 // wall time spent inside crypto UDFs
	SubqueryRuns       int64 // number of subquery executions (incl. decorrelated)
	RowsStreamed       int64 // rows that entered a batch pipeline from a streamed scan
	BatchesStreamed    int64 // batches emitted by streamed scans
	IndexLookups       int64 // secondary-index probes (point, range, IN element, build)
	RowsSkippedByIndex int64 // rows an index scan avoided reading vs the full scan
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.BytesScanned += o.BytesScanned
	s.ExtraBytes += o.ExtraBytes
	s.RowsScanned += o.RowsScanned
	s.RowsOut += o.RowsOut
	s.UDFNanos += o.UDFNanos
	s.SubqueryRuns += o.SubqueryRuns
	s.RowsStreamed += o.RowsStreamed
	s.BatchesStreamed += o.BatchesStreamed
	s.IndexLookups += o.IndexLookups
	s.RowsSkippedByIndex += o.RowsSkippedByIndex
}

// Sub subtracts other from s — the delta between two cumulative snapshots
// of the same accumulator (how multi-producer streams fold each worker's
// progress exactly once).
func (s *Stats) Sub(o Stats) {
	s.BytesScanned -= o.BytesScanned
	s.ExtraBytes -= o.ExtraBytes
	s.RowsScanned -= o.RowsScanned
	s.RowsOut -= o.RowsOut
	s.UDFNanos -= o.UDFNanos
	s.SubqueryRuns -= o.SubqueryRuns
	s.RowsStreamed -= o.RowsStreamed
	s.BatchesStreamed -= o.BatchesStreamed
	s.IndexLookups -= o.IndexLookups
	s.RowsSkippedByIndex -= o.RowsSkippedByIndex
}

// Result is a fully materialized query result.
type Result struct {
	Cols  []string
	Rows  [][]value.Value
	Stats Stats
}

// Bytes returns the total encoded size of the result rows, used to model
// network transfer of intermediate results to the client.
func (r *Result) Bytes() int64 {
	var n int64
	for _, row := range r.Rows {
		for _, v := range row {
			n += int64(v.Size())
		}
		n += 4 // per-row framing
	}
	return n
}

// Engine executes queries against a catalog.
//
// Parallelism sets the worker count for sharded execution: scans, filters,
// hash-join probes, projection, and grouped aggregation are partitioned
// into contiguous row-range shards executed concurrently, with per-shard
// aggregation states combined by AggState.Merge. Values < 1 mean
// GOMAXPROCS; 1 forces the fully sequential path.
//
// BatchSize enables the streaming batch-at-a-time pipeline (see stream.go):
// values > 0 run eligible queries as scan → filter [→ probe…] →
// projection/aggregation over row batches of that size without
// materializing intermediates (1 degenerates to row-at-a-time streaming);
// 0, the default, keeps every operator materialized. Results are
// byte-identical either way. Both knobs must not be changed while queries
// are in flight; concurrent Execute calls on one engine are otherwise safe
// (execution state is per-call, and catalogs are read-only during
// execution).
type Engine struct {
	Cat         *storage.Catalog
	Parallelism int
	BatchSize   int
	// UseIndexes enables cost-based access-path selection (see access.go):
	// single-table scans may restrict through a secondary index and join
	// builds may serve probes from a hash index. Off by default — results
	// are byte-identical either way, but scan statistics (and therefore
	// simulated I/O time) shrink when an index path is taken. Like the
	// other knobs, it must not change while queries are in flight.
	UseIndexes bool
	scalars    map[string]ScalarUDF
	aggs       map[string]AggUDFFactory

	// Cumulative index counters across every query this engine executed.
	// The monomi layer surfaces these: per-query engine Stats never cross
	// the remote wire, but the untrusted server's engine is long-lived.
	cumIndexLookups atomic.Int64
	cumRowsSkipped  atomic.Int64
}

// IndexStats returns the engine-lifetime index counters: total index
// probes and total rows that index scans avoided reading.
func (e *Engine) IndexStats() (lookups, rowsSkipped int64) {
	return e.cumIndexLookups.Load(), e.cumRowsSkipped.Load()
}

// New creates an engine over the catalog.
func New(cat *storage.Catalog) *Engine {
	return &Engine{
		Cat:     cat,
		scalars: make(map[string]ScalarUDF),
		aggs:    make(map[string]AggUDFFactory),
	}
}

// ScalarUDF is a custom scalar function callable from SQL.
type ScalarUDF func(st *Stats, args []value.Value) (value.Value, error)

// AggState accumulates one group's values for an aggregate UDF.
//
// Merge folds a partial state — produced by the same factory over a
// disjoint, earlier-or-later row shard of the same group — into the
// receiver. Sharded grouped aggregation accumulates one state per
// (shard, group) and merges them in shard order, so an implementation that
// is order-sensitive (e.g. concatenation) sees its inputs in the original
// row order. After a state has been merged from, it is discarded; Merge
// may therefore steal its buffers.
//
// Result finalizes the group. When UDF aggregates are present and the
// engine runs parallel, finalization fans groups across workers, so Result
// may be invoked concurrently with other states' Result calls (never
// concurrently on one state). An implementation that writes to shared
// state — typically the *Stats sink its factory captured — must make those
// writes atomic.
type AggState interface {
	Add(args []value.Value) error
	Merge(other AggState) error
	Result() (value.Value, error)
}

// AggUDFFactory creates a fresh per-group state for an aggregate UDF.
type AggUDFFactory func(st *Stats) AggState

// RegisterScalar installs a scalar UDF under the given (lowercase) name.
func (e *Engine) RegisterScalar(name string, fn ScalarUDF) { e.scalars[strings.ToLower(name)] = fn }

// RegisterAgg installs an aggregate UDF under the given (lowercase) name.
func (e *Engine) RegisterAgg(name string, f AggUDFFactory) { e.aggs[strings.ToLower(name)] = f }

// IsAggUDF reports whether name is a registered aggregate UDF.
func (e *Engine) IsAggUDF(name string) bool {
	_, ok := e.aggs[strings.ToLower(name)]
	return ok
}

// Execute runs q with the given parameter bindings.
func (e *Engine) Execute(q *ast.Query, params map[string]value.Value) (*Result, error) {
	ctx := e.newExecCtx(params)
	if err := ctx.checkNames(q); err != nil {
		return nil, err
	}
	rel, err := ctx.execQuery(q, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{Rows: rel.rows, Stats: *ctx.stats}
	for _, c := range rel.cols {
		res.Cols = append(res.Cols, c.name)
	}
	res.Stats.RowsOut = int64(len(res.Rows))
	return res, nil
}

// newExecCtx starts the per-execution state of one Execute or
// ExecuteStream call under the engine's current knobs.
func (e *Engine) newExecCtx(params map[string]value.Value) *execCtx {
	return &execCtx{
		eng: e, params: params, stats: &Stats{},
		subq:   make(map[*ast.Query]*subqPlan),
		par:    e.effectiveParallelism(),
		batch:  e.BatchSize,
		useIdx: e.UseIndexes,
	}
}

// execCtx carries per-execution state.
type execCtx struct {
	eng    *Engine
	params map[string]value.Value
	stats  *Stats
	subq   map[*ast.Query]*subqPlan
	par    int  // worker count for sharded loops (1 = sequential)
	batch  int  // streamed-scan batch size (<= 0 = materialized)
	useIdx bool // cost-based index access paths enabled (access.go)
}

// colInfo names one relation column.
type colInfo struct {
	table string // alias qualifier; empty for computed columns
	name  string
}

// relation is a materialized set of rows with named columns.
type relation struct {
	cols []colInfo
	rows [][]value.Value
	// base is non-nil only for an unfiltered base-table scan (rows aliases
	// the table's rows 1:1); join builds may then use the table's indexes.
	base *storage.Table
}

// indexOf resolves a (possibly qualified) column name. It returns -1 if the
// column is absent, and an error only on ambiguity.
func (r *relation) indexOf(table, col string) (int, error) {
	found := -1
	for i, c := range r.cols {
		if c.name != col {
			continue
		}
		if table != "" && c.table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("engine: ambiguous column %s", col)
		}
		found = i
	}
	return found, nil
}

// execQuery runs a full SELECT and returns its output relation. outer is the
// enclosing row environment for correlated subqueries (nil at top level).
func (c *execCtx) execQuery(q *ast.Query, outer *env) (*relation, error) {
	// Streaming batch-at-a-time path (BatchSize > 0, base tables,
	// subquery-free); not handled means fall through to the materialized
	// operators. deduped reports that the streamed path already applied
	// DISTINCT (the streaming seen-set emission), so the materialized
	// keep-bitmap pass below must not run again.
	out, handled, deduped, err := c.execStreamed(q, outer)
	if err != nil {
		return nil, err
	}
	if !handled {
		// Materialized-mode index hook: a single-table query whose WHERE
		// restricts through an index (or whose ORDER BY an ordered index
		// can emit pre-sorted) fetches only the listed rows (access.go).
		out, handled, err = c.execIndexed(q, outer)
		if err != nil {
			return nil, err
		}
	}
	if !handled {
		joined, err := c.execSource(q, outer)
		if err != nil {
			return nil, err
		}

		// Aggregate or project.
		if c.isGrouped(q) {
			out, err = c.execGrouped(q, joined, outer)
		} else {
			out, err = c.execProject(q, joined, outer)
		}
		if err != nil {
			return nil, err
		}
	}

	if q.Distinct && !deduped {
		out = c.distinct(out)
	}
	if q.Limit >= 0 && len(out.rows) > q.Limit {
		out.rows = out.rows[:q.Limit]
	}
	return out, nil
}

// execSource materializes the FROM/WHERE portion of a query: scans, joins,
// and all filters — the relation that feeds aggregation or projection. The
// decorrelator also uses it directly to bucket inner rows for EXISTS.
func (c *execCtx) execSource(q *ast.Query, outer *env) (*relation, error) {
	rels := make([]*relation, len(q.From))
	for i, f := range q.From {
		r, err := c.execFrom(&f, outer)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}
	if len(rels) == 0 {
		return nil, fmt.Errorf("engine: query with empty FROM")
	}

	joined, residual, err := c.joinAll(q, rels, outer)
	if err != nil {
		return nil, err
	}

	// Residual filters (multi-table non-equi predicates, subqueries).
	if len(residual) > 0 {
		joined, err = c.filter(joined, ast.AndAll(residual), outer)
		if err != nil {
			return nil, err
		}
	}
	return joined, nil
}

// execFrom materializes one FROM entry.
func (c *execCtx) execFrom(f *ast.TableRef, outer *env) (*relation, error) {
	if f.Sub != nil {
		sub, err := c.execQuery(f.Sub, outer)
		if err != nil {
			return nil, err
		}
		// Re-qualify the derived table's columns under its alias.
		cols := make([]colInfo, len(sub.cols))
		for i, col := range sub.cols {
			cols[i] = colInfo{table: f.RefName(), name: col.name}
		}
		return &relation{cols: cols, rows: sub.rows}, nil
	}
	t, err := c.eng.Cat.Table(f.Name)
	if err != nil {
		return nil, err
	}
	n := t.NumRows()
	rows, phys, err := t.ScanRows(0, n)
	if err != nil {
		return nil, err
	}
	if t.Paged() {
		c.stats.BytesScanned += phys
	} else {
		c.stats.BytesScanned += t.Bytes
	}
	c.stats.RowsScanned += int64(n)
	cols := make([]colInfo, len(t.Schema.Cols))
	for i, col := range t.Schema.Cols {
		cols[i] = colInfo{table: f.RefName(), name: col.Name}
	}
	return &relation{cols: cols, rows: rows, base: t}, nil
}

// isGrouped reports whether the query needs the aggregation path.
func (c *execCtx) isGrouped(q *ast.Query) bool {
	if len(q.GroupBy) > 0 || q.Having != nil {
		return true
	}
	for _, p := range q.Projections {
		if c.hasAggLike(p.Expr) {
			return true
		}
	}
	return false
}

// hasAggLike reports whether e contains a built-in aggregate or an
// aggregate UDF call.
func (c *execCtx) hasAggLike(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) {
		switch n := x.(type) {
		case *ast.AggExpr:
			found = true
		case *ast.FuncCall:
			if c.eng.IsAggUDF(n.Name) {
				found = true
			}
		}
	})
	return found
}

// distinctKey renders one row's dedup key.
func distinctKey(row []value.Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.HashKey())
		b.WriteByte(0)
	}
	return b.String()
}

// distinct removes duplicate rows, preserving first occurrence order. Large
// inputs dedup in parallel with partitioned seen-sets: row-range workers
// render every row's key, then one worker per key-hash partition marks the
// first occurrence of each key it owns (a key lives entirely in one
// partition, so no two workers touch the same keep slot), and the survivors
// collect in row order — byte-identical to the sequential pass.
func (c *execCtx) distinct(r *relation) *relation {
	n := len(r.rows)
	shards := c.shardCount(n)
	if shards <= 1 {
		seen := make(map[string]bool, n)
		out := r.rows[:0:0]
		for _, row := range r.rows {
			k := distinctKey(row)
			if !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
		return &relation{cols: r.cols, rows: out}
	}

	keys := make([]string, n)
	partIDs := make([]int32, n)
	bounds := shardBounds(n, shards)
	// Keys are pure renders of row values; no stats, no env — plain
	// worker fan-out suffices (errors impossible). Each key is hashed to
	// its partition once, here, so the partition pass below is an integer
	// compare per row instead of a rehash per (row, worker).
	_ = parallelDo(shards, func(s int) error {
		for i := bounds[s][0]; i < bounds[s][1]; i++ {
			keys[i] = distinctKey(r.rows[i])
			partIDs[i] = int32(joinPartition(keys[i], shards))
		}
		return nil
	})
	keep := make([]bool, n)
	_ = parallelDo(shards, func(p int) error {
		seen := make(map[string]bool, n/shards+1)
		for i, id := range partIDs {
			if id != int32(p) {
				continue
			}
			k := keys[i]
			if !seen[k] {
				seen[k] = true
				keep[i] = true
			}
		}
		return nil
	})
	out := r.rows[:0:0]
	for i, row := range r.rows {
		if keep[i] {
			out = append(out, row)
		}
	}
	return &relation{cols: r.cols, rows: out}
}

// execProject handles the non-aggregated path: projection, ORDER BY, LIMIT.
func (c *execCtx) execProject(q *ast.Query, in *relation, outer *env) (*relation, error) {
	outCols := projectionCols(q)
	aliases := aliasMap(q)
	nOrder := len(q.OrderBy)
	projectShard := func(sc *execCtx, out []keyedRow, lo, hi int) error {
		for i := lo; i < hi; i++ {
			en := &env{rel: in, row: in.rows[i], outer: outer, aliases: aliases, ctx: sc}
			vals, err := projectRow(en, q)
			if err != nil {
				return err
			}
			k := keyedRow{row: vals}
			if nOrder > 0 {
				k.keys = make([]value.Value, nOrder)
				for j, o := range q.OrderBy {
					v, err := eval(en, o.Expr)
					if err != nil {
						return err
					}
					k.keys[j] = v
				}
			}
			out[i-lo] = k
		}
		return nil
	}

	outRows := make([]keyedRow, len(in.rows))
	shards := c.shardCount(len(in.rows))
	if shards > 1 && parallelSafe(outer, projectionExprs(q)...) {
		if _, err := shardedCollect(c, shards, len(in.rows), func(sc *execCtx, lo, hi int) (struct{}, error) {
			return struct{}{}, projectShard(sc, outRows[lo:hi], lo, hi)
		}); err != nil {
			return nil, err
		}
	} else if err := projectShard(c, outRows, 0, len(in.rows)); err != nil {
		return nil, err
	}
	sortKeyed(outRows, q.OrderBy)
	rows := make([][]value.Value, len(outRows))
	for i, k := range outRows {
		rows[i] = k.row
	}
	return &relation{cols: outCols, rows: rows}, nil
}

// projectionExprs gathers every expression execProject evaluates per row:
// the SELECT list plus ORDER BY keys (which may expand SELECT aliases).
func projectionExprs(q *ast.Query) []ast.Expr {
	var out []ast.Expr
	for _, p := range q.Projections {
		out = append(out, p.Expr)
	}
	for _, o := range q.OrderBy {
		out = append(out, o.Expr)
	}
	return out
}

// projectionCols derives output column names from the SELECT list.
func projectionCols(q *ast.Query) []colInfo {
	cols := make([]colInfo, len(q.Projections))
	for i, p := range q.Projections {
		name := p.Alias
		if name == "" {
			if cr, ok := p.Expr.(*ast.ColumnRef); ok {
				name = cr.Column
			} else {
				name = p.Expr.SQL()
			}
		}
		cols[i] = colInfo{name: name}
	}
	return cols
}

// aliasMap exposes SELECT-list aliases to HAVING/ORDER BY resolution.
func aliasMap(q *ast.Query) map[string]ast.Expr {
	m := make(map[string]ast.Expr)
	for _, p := range q.Projections {
		if p.Alias != "" {
			m[p.Alias] = p.Expr
		}
	}
	return m
}

// projectRow evaluates the SELECT list for one input row or group.
func projectRow(en *env, q *ast.Query) ([]value.Value, error) {
	vals := make([]value.Value, len(q.Projections))
	for i, p := range q.Projections {
		// SELECT * expands all input columns; only valid un-aggregated.
		if cr, ok := p.Expr.(*ast.ColumnRef); ok && cr.Column == "*" {
			return append([]value.Value(nil), en.row...), nil
		}
		v, err := eval(en, p.Expr)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// keyedRow pairs a projected output row with its ORDER BY key values.
type keyedRow struct {
	row  []value.Value
	keys []value.Value
}

// sortKeyed sorts projected rows by their ORDER BY key values.
func sortKeyed(rows []keyedRow, order []ast.OrderItem) {
	if len(order) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k, o := range order {
			cmp := value.Compare(a.keys[k], b.keys[k])
			if cmp == 0 {
				continue
			}
			if o.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
}
