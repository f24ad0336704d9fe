package engine

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/storage"
	"repro/internal/value"
)

// Streaming batch-at-a-time execution: one stream source, two sinks.
//
// When Engine.BatchSize > 0, a subquery-free query over base tables runs
// as a pull-based (Volcano-style, vectorized) pipeline of fixed-size row
// batches instead of materializing each operator's full output. openStream
// is the only place such a pipeline starts. Behind the one eligibility
// gate (batch mode, a top-level scope, base tables that all exist, no
// subquery) it builds the query's streamSource: the FROM/WHERE front as
// independent chains over contiguous ranges of the input,
//
//	one table:  scan ──batch──▶ filter ──batch──▶ [project]
//	join:       scan(t0) ─▶ filter ─▶ probe₁ ─▶ … ─▶ probeₙ ─▶ residual ─▶ [project]
//
// A one-table scan may restrict through an index (access.go). A join's
// build sides (every table the greedy join order attaches) materialize
// into partitioned hash tables when the source opens; table 0's scan
// streams through the probe chain, so the join output never exists as a
// whole.
//
// Two sinks drain the source:
//
//   - The collect sink, execStreamed, behind Execute. Grouped aggregation
//     folds each batch into the per-group AggState accumulators; rows
//     drain with LIMIT early exit, which cuts the scan (and its charged
//     I/O) short; DISTINCT streams through a seen-set; ORDER BY … LIMIT
//     over one table keeps a bounded top-N heap; any other ORDER BY
//     streams the front and materializes only its survivors for the sort.
//   - The pull sink, pipelinedStream, behind ExecuteStream
//     (stream_api.go), which emits rows, groups and top-N batch by batch.
//
// Everything else — derived tables, subqueries, correlated evaluation
// under a non-nil outer env — runs the materialized operators.
//
// Both sinks shard: each worker runs its own chain over a contiguous range
// pinned to the sequential scan's batch grid (shardStreamBounds), and the
// per-shard outputs (row batches, group states, top-N candidates)
// recombine in shard order, so per-batch statistics — not just results —
// are identical at every parallelism level. Workers are joined before the
// query returns; no iterator owns a goroutine. Results are byte-identical
// to the materialized path at every batch size and parallelism level, with
// the single carve-out documented in parallel.go: SUM/AVG over Float
// columns may differ in the last ULP when sharded, because per-shard
// partial sums regroup the float additions (batching alone does not
// reorder them).

// DefaultBatchSize is the batch size callers that just want streaming
// should use: large enough to amortize per-batch overhead, small enough
// that a pipeline's working set stays cache-resident.
const DefaultBatchSize = 1024

// batchIterator is the pull interface of the streaming pipeline. next
// returns the next batch of rows, or nil when the stream is exhausted;
// batches shrink through filters and are never re-compacted, so a batch is
// only guaranteed non-empty. close releases the stream early (LIMIT
// cut-off); next after close returns nil. Iterators are single-goroutine:
// a chain is pulled only by the worker that built it.
type batchIterator interface {
	next() ([][]value.Value, error)
	close()
}

// scanIterator streams a table's rows [lo,hi) in fixed-size batches,
// pulled from the storage backend one batch at a time and charging scan
// statistics as the batches are actually pulled: rows per batch, and bytes
// either as the backend's real physical page reads (paged backends) or as
// the cumulative difference of the table's row-proportional byte prefix,
// so per-batch charges telescope to exactly t.Bytes for a full in-memory
// scan at any batch size and shard count, while an early-exited scan
// charges only what it read.
type scanIterator struct {
	st        *Stats
	t         *storage.Table
	lo, hi    int // scanned row-id range
	tableRows int
	bytes     int64 // total table heap bytes
	size      int   // batch size
	pos       int   // next row id to pull
	closed    bool
}

func newScanIterator(st *Stats, t *storage.Table, lo, hi, size int) *scanIterator {
	return &scanIterator{
		st: st, t: t, lo: lo, hi: hi, pos: lo,
		tableRows: t.NumRows(), bytes: t.Bytes, size: size,
	}
}

// bytePrefix is the scan-byte charge for the table's first n rows.
func (it *scanIterator) bytePrefix(n int) int64 {
	return it.bytes * int64(n) / int64(it.tableRows)
}

func (it *scanIterator) next() ([][]value.Value, error) {
	if it.closed || it.pos >= it.hi {
		return nil, nil
	}
	end := it.pos + it.size
	if end > it.hi {
		end = it.hi
	}
	b, phys, err := it.t.ScanRows(it.pos, end)
	if err != nil {
		return nil, err
	}
	if it.t.Paged() {
		it.st.BytesScanned += phys
	} else {
		it.st.BytesScanned += it.bytePrefix(end) - it.bytePrefix(it.pos)
	}
	it.st.RowsScanned += int64(len(b))
	it.st.RowsStreamed += int64(len(b))
	it.st.BatchesStreamed++
	it.pos = end
	return b, nil
}

func (it *scanIterator) close() { it.closed = true }

// filterIterator applies a predicate row-at-a-time within each batch,
// emitting the surviving subset (input row order preserved). Batches the
// predicate empties entirely are skipped, not emitted.
type filterIterator struct {
	in   batchIterator
	rel  *relation // column layout only; rows stay in the batches
	pred ast.Expr
	c    *execCtx
}

func (it *filterIterator) next() ([][]value.Value, error) {
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		var out [][]value.Value
		for _, row := range b {
			en := &env{rel: it.rel, row: row, ctx: it.c}
			ok, err := evalBool(en, it.pred)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *filterIterator) close() { it.in.close() }

// projectIterator evaluates the SELECT list for each row of a batch.
type projectIterator struct {
	in      batchIterator
	q       *ast.Query
	rel     *relation
	aliases map[string]ast.Expr
	c       *execCtx
}

func (it *projectIterator) next() ([][]value.Value, error) {
	b, err := it.in.next()
	if err != nil || b == nil {
		return nil, err
	}
	out := make([][]value.Value, len(b))
	for i, row := range b {
		en := &env{rel: it.rel, row: row, aliases: it.aliases, ctx: it.c}
		vals, err := projectRow(en, it.q)
		if err != nil {
			return nil, err
		}
		out[i] = vals
	}
	return out, nil
}

func (it *projectIterator) close() { it.in.close() }

// dedupBatch filters b down to the rows whose dedup key is not yet in
// seen, marking the survivors. keys, when non-nil, supplies the rows'
// pre-rendered keys (keys[i] belongs to b[i]); otherwise keys render
// here. Returns the surviving rows and their keys in a fresh slice
// (never aliasing b's backing array). Every streaming dedup — the
// sequential distinctIterator, the sharded producer's local pre-dedup,
// the merger's and streamDistinct's global first-occurrence filters —
// goes through this one loop.
func dedupBatch(seen map[string]bool, b [][]value.Value, keys []string) ([][]value.Value, []string) {
	kept := b[:0:0]
	var keptKeys []string
	for i, row := range b {
		var k string
		if keys != nil {
			k = keys[i]
		} else {
			k = distinctKey(row)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		kept = append(kept, row)
		keptKeys = append(keptKeys, k)
	}
	return kept, keptKeys
}

// distinctIterator streams DISTINCT: a seen-set over the projected rows
// emits only each row's first occurrence, batch-at-a-time — the streaming
// replacement for the materialized keep-bitmap pass (engine.distinct) on
// single-consumer pipelines. Batches the dedup empties entirely are
// skipped, like filterIterator's.
type distinctIterator struct {
	in   batchIterator
	seen map[string]bool
}

func (it *distinctIterator) next() ([][]value.Value, error) {
	if it.seen == nil {
		it.seen = make(map[string]bool)
	}
	for {
		b, err := it.in.next()
		if err != nil || b == nil {
			return nil, err
		}
		out, _ := dedupBatch(it.seen, b, nil)
		if len(out) > 0 {
			return out, nil
		}
	}
}

func (it *distinctIterator) close() { it.in.close() }

// lazyIterator defers building its inner iterator to the first pull, so a
// stream whose production has an expensive up-front phase (grouped
// accumulation, a top-N scan) performs no work if the consumer closes it —
// or LIMIT-0s it — before reading.
type lazyIterator struct {
	mk     func() (batchIterator, error)
	it     batchIterator
	err    error
	closed bool
}

func (l *lazyIterator) next() ([][]value.Value, error) {
	if l.err != nil || l.closed {
		return nil, l.err
	}
	if l.it == nil {
		l.it, l.err = l.mk()
		if l.err != nil {
			return nil, l.err
		}
	}
	return l.it.next()
}

func (l *lazyIterator) close() {
	l.closed = true
	if l.it != nil {
		l.it.close()
	}
}

// sliceIterator chunks an already-materialized row set into batches,
// releasing each chunk's row pointers as it is emitted so a consumed
// prefix (and the ciphertext blobs it references) is collectable before
// the stream ends.
type sliceIterator struct {
	rows [][]value.Value
	size int
	pos  int
}

func (it *sliceIterator) next() ([][]value.Value, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	end := it.pos + it.size
	if end > len(it.rows) {
		end = len(it.rows)
	}
	b := make([][]value.Value, end-it.pos)
	copy(b, it.rows[it.pos:end])
	for i := it.pos; i < end; i++ {
		it.rows[i] = nil
	}
	it.pos = end
	return b, nil
}

func (it *sliceIterator) close() { it.pos = len(it.rows) }

// probeIterator expands each probe-side batch through one join step: hash
// probe against a partitioned materialized build (build != nil) or cross
// join (cross != nil). Each probe row extends with its matching build rows
// in build-side row order — exactly the materialized probe's emit order —
// but output batches are capped at the pipeline batch size: a probe row
// with a large fanout (duplicate build keys, or a cross join's whole right
// side) is emitted across as many batches as it takes, with the expansion
// position carried between next calls. The cap is what keeps a streamed
// join's wire frames and the consumer's working set batch-sized even when
// the join output is far larger than its input.
type probeIterator struct {
	in    batchIterator
	rel   *relation  // layout of the incoming (probe-side) rows
	keys  []ast.Expr // probe key expressions (hash step)
	build *joinBuild // hash step: partitioned build side
	cross *relation  // cross step: full build side
	c     *execCtx

	// Expansion state carried across next calls.
	batch   [][]value.Value // input batch being consumed
	bi      int             // next input row in batch
	lrow    []value.Value   // probe row whose matches are mid-emission
	matches [][]value.Value // its remaining build rows start at mi
	mi      int
}

func (it *probeIterator) next() ([][]value.Value, error) {
	target := it.c.batch
	var out [][]value.Value
	for {
		// Drain the in-flight expansion first.
		for it.mi < len(it.matches) {
			if len(out) >= target {
				return out, nil
			}
			rrow := it.matches[it.mi]
			it.mi++
			combined := make([]value.Value, 0, len(it.lrow)+len(rrow))
			combined = append(combined, it.lrow...)
			combined = append(combined, rrow...)
			out = append(out, combined)
		}
		if it.bi >= len(it.batch) {
			b, err := it.in.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				if len(out) > 0 {
					return out, nil
				}
				return nil, nil
			}
			it.batch, it.bi = b, 0
			continue
		}
		lrow := it.batch[it.bi]
		it.bi++
		if it.cross != nil {
			it.lrow, it.matches, it.mi = lrow, it.cross.rows, 0
			continue
		}
		en := &env{rel: it.rel, row: lrow, ctx: it.c}
		key, null, err := joinKey(en, it.keys)
		if err != nil {
			return nil, err
		}
		if null {
			continue
		}
		it.lrow, it.matches, it.mi = lrow, it.build.lookup(key), 0
	}
}

func (it *probeIterator) close() { it.in.close() }

// joinStreamPlan is the shared, read-only state of one streamed join:
// the probe table (table 0 — the probe side of every step, since the
// greedy order always grows from it), the join plan, the filtered and
// materialized build sides (hash partitions or cross buffers), and the
// layouts. Once prepared, any number of workers can assemble independent
// iterator chains over disjoint probe-row ranges.
type joinStreamPlan struct {
	q      *ast.Query
	t0     *storage.Table
	plan   *joinPlan
	rels   []*relation  // rels[0] is layout-only; rows stream
	builds []*joinBuild // one per plan step; nil for cross steps
	joined *relation    // joined layout (residual/grouping evaluation)
}

// prepareJoinStream plans a multi-table q and materializes every build
// side (charging the build-side scans and filters on c, with sharded
// builds). Only openStream calls it, after the eligibility gate.
func (c *execCtx) prepareJoinStream(q *ast.Query) (*joinStreamPlan, error) {
	refNames := make([]string, len(q.From))
	for i := range q.From {
		refNames[i] = q.From[i].RefName()
	}
	t0, err := c.eng.Cat.Table(q.From[0].Name)
	if err != nil {
		return nil, err
	}
	rels := make([]*relation, len(q.From))
	rels[0] = tableLayout(t0, refNames[0]) // layout only; rows stream
	for i := 1; i < len(q.From); i++ {
		r, err := c.execFrom(&q.From[i], nil)
		if err != nil {
			return nil, err
		}
		rels[i] = r
	}

	plan, err := planJoin(q, refNames, rels)
	if err != nil {
		return nil, err
	}
	// Build-side single-table filters apply materialized; table 0's run
	// inside the stream.
	for i := 1; i < len(rels); i++ {
		if len(plan.perTable[i]) == 0 {
			continue
		}
		filtered, err := c.filter(rels[i], ast.AndAll(plan.perTable[i]), nil)
		if err != nil {
			return nil, err
		}
		rels[i] = filtered
	}

	jp := &joinStreamPlan{q: q, t0: t0, plan: plan, rels: rels}
	cols := append([]colInfo(nil), rels[0].cols...)
	for _, st := range plan.steps {
		var build *joinBuild
		if len(st.leftKeys) > 0 {
			build, err = c.buildJoinMap(rels[st.next], st.rightKeys, nil)
			if err != nil {
				return nil, err
			}
		}
		jp.builds = append(jp.builds, build)
		cols = append(cols[:len(cols):len(cols)], rels[st.next].cols...)
	}
	jp.joined = &relation{cols: cols}
	return jp, nil
}

// chain assembles one streamed-probe pipeline over probe rows [lo,hi),
// evaluating on sc (so a shard context accumulates its own stats):
//
//	scan(t0) ─batch─▶ filter ─▶ probe₁ ─▶ … ─▶ probeₙ ─▶ residual ─▶ project
//
// The pipeline executes exactly the joinAll plan, so rows and row order
// are byte-identical to the materialized path; what changes is that the
// join output — often the largest intermediate of the query — never
// exists as a whole, and the first joined batch is available after one
// probe batch instead of after the full probe scan.
func (jp *joinStreamPlan) chain(sc *execCtx, lo, hi int, project bool) batchIterator {
	var it batchIterator = newScanIterator(sc.stats, jp.t0, lo, hi, sc.batch)
	if len(jp.plan.perTable[0]) > 0 {
		it = &filterIterator{in: it, rel: jp.rels[0], pred: ast.AndAll(jp.plan.perTable[0]), c: sc}
	}
	cols := jp.rels[0].cols
	for si, st := range jp.plan.steps {
		probeLayout := &relation{cols: cols}
		if jp.builds[si] == nil {
			it = &probeIterator{in: it, rel: probeLayout, cross: jp.rels[st.next], c: sc}
		} else {
			it = &probeIterator{in: it, rel: probeLayout, keys: st.leftKeys, build: jp.builds[si], c: sc}
		}
		cols = append(cols[:len(cols):len(cols)], jp.rels[st.next].cols...)
	}
	if len(jp.plan.residual) > 0 {
		it = &filterIterator{in: it, rel: jp.joined, pred: ast.AndAll(jp.plan.residual), c: sc}
	}
	if project {
		it = &projectIterator{in: it, q: jp.q, rel: jp.joined, aliases: aliasMap(jp.q), c: sc}
	}
	return it
}

// streamPipeline assembles scan → [filter] → [project] over src's rows at
// positions [lo,hi), evaluating on c (so a shard context accumulates its
// own stats). src may be the whole table or an index-restricted id list —
// the residual filter re-applies the full WHERE either way.
func (c *execCtx) streamPipeline(q *ast.Query, src *rowSource, layout *relation, aliases map[string]ast.Expr, lo, hi int, project bool) batchIterator {
	var it batchIterator = newSourceIterator(c.stats, src, lo, hi, c.batch)
	if q.Where != nil {
		it = &filterIterator{in: it, rel: layout, pred: q.Where, c: c}
	}
	if project {
		it = &projectIterator{in: it, q: q, rel: layout, aliases: aliases, c: c}
	}
	return it
}

// streamSource is the one input both sinks build on: q's FROM/WHERE front
// as independent batch pipelines over contiguous ranges of its n input
// positions (table 0's scan positions; an index-restricted id list's for
// one table). chain builds the pipeline over [lo,hi) on a (shard)
// context — streamPipeline for one table, joinStreamPlan.chain for joins —
// ending in the SELECT-list projection when project is set, else emitting
// unprojected rows in layout.
type streamSource struct {
	n      int
	layout *relation // unprojected row layout: the table's, or the joined one
	chain  func(sc *execCtx, lo, hi int, project bool) batchIterator
}

// streamable is the streaming eligibility gate: batch mode on, a top-level
// scope, and a query shape that can stream (streamShape).
func (c *execCtx) streamable(q *ast.Query, outer *env) bool {
	return c.batch > 0 && outer == nil && c.streamShape(q)
}

// streamShape reports whether q has a streamable shape: a subquery-free
// query over base tables that all exist. Subquery planning memoizes state
// on the execution context (see parallelSafe), derived tables have no
// scan to stream, and an unknown table is left for the materialized path
// to report.
func (c *execCtx) streamShape(q *ast.Query) bool {
	if len(q.From) == 0 || streamBlocked(q) {
		return false
	}
	for i := range q.From {
		if q.From[i].Sub != nil {
			return false
		}
		if _, err := c.eng.Cat.Table(q.From[i].Name); err != nil {
			return false
		}
	}
	return true
}

// openStream constructs q's stream source; it is the only constructor.
// ok=false means q fails the eligibility gate and must run materialized.
// Access-path selection happens here for one table (access.go: ids are
// ascending, so every order-sensitive stage downstream sees table order);
// for a join the build sides are planned, filtered and materialized here,
// and a failure returns ok=true with the error.
func (c *execCtx) openStream(q *ast.Query, outer *env) (*streamSource, bool, error) {
	if !c.streamable(q, outer) {
		return nil, false, nil
	}
	if len(q.From) > 1 {
		jp, err := c.prepareJoinStream(q)
		if err != nil {
			return nil, true, err
		}
		return &streamSource{n: jp.t0.NumRows(), layout: jp.joined, chain: jp.chain}, true, nil
	}
	f := &q.From[0]
	t, _ := c.eng.Cat.Table(f.Name)
	layout := tableLayout(t, f.RefName())
	src := c.indexSource(q, t, f.RefName())
	aliases := aliasMap(q)
	chain := func(sc *execCtx, lo, hi int, project bool) batchIterator {
		return sc.streamPipeline(q, src, layout, aliases, lo, hi, project)
	}
	return &streamSource{n: src.n(), layout: layout, chain: chain}, true, nil
}

// streamsTopN reports whether a non-grouped q runs as streamed top-N:
// ORDER BY … LIMIT without DISTINCT over one table (the tiebreak ranks
// rows by scan position, which a join's fanout would not keep unique).
func streamsTopN(q *ast.Query) bool {
	return len(q.OrderBy) > 0 && q.Limit >= 0 && !q.Distinct && len(q.From) == 1
}

// execStreamed is the collect sink: it drains q's stream source into the
// pre-LIMIT output relation, exactly like execGrouped/execProject return
// it. handled=false means q is not streamable and the caller runs the
// materialized operators; deduped=true means DISTINCT was already applied
// in-stream (streamDistinct), so the caller must skip the materialized
// dedup pass.
func (c *execCtx) execStreamed(q *ast.Query, outer *env) (*relation, bool, bool, error) {
	ss, ok, err := c.openStream(q, outer)
	if !ok || err != nil {
		return nil, ok, false, err
	}
	if c.isGrouped(q) {
		specs := c.collectAggSpecs(q)
		groups, err := c.streamGroups(q, specs, ss)
		if err != nil {
			return nil, true, false, err
		}
		out, err := c.finishGrouped(q, specs, groups, ss.layout, nil)
		return out, true, false, err
	}
	if len(q.OrderBy) > 0 && !streamsTopN(q) {
		// ORDER BY needs the materialized sort: the scan→filter[→probe…]
		// front still streams and only its survivors materialize for
		// execProject. The scan iterators have already charged the scan,
		// so the survivors must not go back through execFrom.
		front, err := c.streamRows(ss, false, -1)
		if err != nil {
			return nil, true, false, err
		}
		out, err := c.execProject(q, &relation{cols: ss.layout.cols, rows: front}, nil)
		return out, true, false, err
	}
	var rows [][]value.Value
	switch {
	case len(q.OrderBy) > 0:
		rows, err = c.streamTopN(q, ss)
	case q.Distinct:
		rows, err = c.streamDistinct(q, ss)
	default:
		rows, err = c.streamRows(ss, true, q.Limit)
	}
	if err != nil {
		return nil, true, false, err
	}
	// Top-N excludes DISTINCT, so a DISTINCT query got here through
	// streamDistinct and is already deduplicated.
	return &relation{cols: projectionCols(q), rows: rows}, true, q.Distinct, nil
}

// drainLimit pulls a stream to completion, or until limit rows (limit < 0 =
// unlimited) have been produced — the early exit that lets LIMIT stop the
// scan partway through the table.
func drainLimit(it batchIterator, limit int) ([][]value.Value, error) {
	var out [][]value.Value
	for {
		if limit >= 0 && len(out) >= limit {
			it.close()
			return out[:limit], nil
		}
		b, err := it.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		out = append(out, b...)
	}
}

// streamBlocked reports whether any clause of q contains a subquery, which
// forces the materialized path (subquery planning memoizes state on the
// execution context; see parallelSafe).
func streamBlocked(q *ast.Query) bool {
	exprs := []ast.Expr{q.Where, q.Having}
	for _, p := range q.Projections {
		exprs = append(exprs, p.Expr)
	}
	exprs = append(exprs, q.GroupBy...)
	for _, o := range q.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if e != nil && ast.HasSubquery(e) {
			return true
		}
	}
	return false
}

// tableLayout builds the column layout of one base table scanned under the
// given alias — the relation whose rows stream instead of materializing.
func tableLayout(t *storage.Table, ref string) *relation {
	cols := make([]colInfo, len(t.Schema.Cols))
	for i, col := range t.Schema.Cols {
		cols[i] = colInfo{table: ref, name: col.Name}
	}
	return &relation{cols: cols}
}

// streamRows drains the (optionally projecting) pipeline over the whole
// source, sharding the range across workers when it is large enough.
// Each worker pulls batches over its own contiguous range on its own shard
// context; the per-shard outputs concatenate in shard order, so row order —
// and therefore the final result — is byte-identical to a sequential
// stream and to the materialized path. A limit forces the sequential
// drain: only the global row-prefix matters, so one early-exiting stream
// is the least work possible, whereas sharding would make every worker
// scan for up to limit rows of its own range (most of them discarded) and
// leave the charged scan stats varying with the Parallelism knob.
func (c *execCtx) streamRows(ss *streamSource, project bool, limit int) ([][]value.Value, error) {
	shards := c.shardCount(ss.n)
	if shards <= 1 || limit >= 0 {
		return drainLimit(ss.chain(c, 0, ss.n, project), limit)
	}
	return c.shardedRowsBounds(shardStreamBounds(ss.n, shards, c.batch), func(sc *execCtx, lo, hi int) ([][]value.Value, error) {
		return drainLimit(ss.chain(sc, lo, hi, project), -1)
	})
}

// streamDistinct drains the projecting pipeline through streaming dedup,
// replacing the materialize-then-bitmap pass. Sequentially, one seen-set
// filters the stream inline. Sharded, each worker drops its own shard's
// re-occurrences (only a shard's first occurrence of a key can be globally
// first) and returns the surviving candidates with their rendered keys;
// the candidates then replay in shard order through one global seen-set,
// so the kept rows — and their order — are exactly the sequential scan's
// first occurrences. A LIMIT counts deduplicated output rows and forces
// the sequential drain, as in streamRows.
func (c *execCtx) streamDistinct(q *ast.Query, ss *streamSource) ([][]value.Value, error) {
	shards := c.shardCount(ss.n)
	if shards <= 1 || q.Limit >= 0 {
		return drainLimit(&distinctIterator{in: ss.chain(c, 0, ss.n, true)}, q.Limit)
	}
	type part struct {
		rows [][]value.Value
		keys []string
	}
	parts, err := shardedCollectBounds(c, shardStreamBounds(ss.n, shards, c.batch), func(sc *execCtx, lo, hi int) (part, error) {
		it := ss.chain(sc, lo, hi, true)
		defer it.close()
		seen := make(map[string]bool)
		var p part
		for {
			b, err := it.next()
			if err != nil {
				return part{}, err
			}
			if b == nil {
				return p, nil
			}
			kept, keys := dedupBatch(seen, b, nil)
			p.rows = append(p.rows, kept...)
			p.keys = append(p.keys, keys...)
		}
	})
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out [][]value.Value
	for _, p := range parts {
		kept, _ := dedupBatch(seen, p.rows, p.keys)
		out = append(out, kept...)
	}
	return out, nil
}

// streamGroups feeds grouped aggregation from the unprojected stream: each
// shard folds its batches into a fresh groupSet, so the filtered (or
// joined) input is never materialized, and the per-shard sets merge in
// shard order through the same AggState.Merge path the materialized
// sharded engine uses. The eligibility gate has already established
// parallel safety (nil outer env, subquery-free clauses).
func (c *execCtx) streamGroups(q *ast.Query, specs []aggSpec, ss *streamSource) (*groupSet, error) {
	acc := func(sc *execCtx, lo, hi int) (*groupSet, error) {
		gs := newGroupSet()
		it := ss.chain(sc, lo, hi, false)
		for {
			b, err := it.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return gs, nil
			}
			if err := sc.accumulateRows(q, specs, gs, ss.layout, b, nil); err != nil {
				return nil, err
			}
		}
	}
	shards := c.shardCount(ss.n)
	if shards <= 1 {
		return acc(c, 0, ss.n)
	}
	parts, err := shardedCollectBounds(c, shardStreamBounds(ss.n, shards, c.batch), acc)
	if err != nil {
		return nil, err
	}
	return c.mergeGroupParts(specs, parts)
}

// Streamed top-N: ORDER BY ... LIMIT k over a one-table stream keeps only
// the k best rows in a bounded heap instead of materializing and sorting
// the whole filtered input. Rows are ranked by the ORDER BY keys with the
// scan position as the final tiebreaker, which reproduces exactly the
// stable sort + truncate of the materialized path: equal-key rows keep
// their input order. Sharded execution collects a per-shard top-k and
// merges the candidates with one final k-truncated sort, so results are
// byte-identical at every shard count. Only the k winners are projected.

// topNRow is one candidate: its ORDER BY key values, the input row (still
// unprojected), and its scan position.
type topNRow struct {
	keys []value.Value
	row  []value.Value
	seq  int
}

// topNLess is the total order of the streamed top-N: ORDER BY keys first
// (Desc flips), scan position as tiebreaker.
func topNLess(order []ast.OrderItem, a, b *topNRow) bool {
	for i, o := range order {
		cmp := value.Compare(a.keys[i], b.keys[i])
		if cmp == 0 {
			continue
		}
		if o.Desc {
			return cmp > 0
		}
		return cmp < 0
	}
	return a.seq < b.seq
}

// topNHeap is a bounded max-heap of the k best rows seen so far; the root
// is the worst kept row, so admission is one comparison against it.
type topNHeap struct {
	order []ast.OrderItem
	k     int
	rows  []topNRow
}

// admit offers one candidate. A full heap replaces its root only when the
// candidate ranks strictly before it.
func (h *topNHeap) admit(cand topNRow) {
	if h.k <= 0 {
		return
	}
	if len(h.rows) < h.k {
		h.rows = append(h.rows, cand)
		h.siftUp(len(h.rows) - 1)
		return
	}
	if topNLess(h.order, &cand, &h.rows[0]) {
		h.rows[0] = cand
		h.siftDown(0)
	}
}

func (h *topNHeap) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !topNLess(h.order, &h.rows[p], &h.rows[i]) {
			return
		}
		h.rows[p], h.rows[i] = h.rows[i], h.rows[p]
		i = p
	}
}

func (h *topNHeap) siftDown(i int) {
	n := len(h.rows)
	for {
		worst := i
		for _, ch := range []int{2*i + 1, 2*i + 2} {
			if ch < n && topNLess(h.order, &h.rows[worst], &h.rows[ch]) {
				worst = ch
			}
		}
		if worst == i {
			return
		}
		h.rows[i], h.rows[worst] = h.rows[worst], h.rows[i]
		i = worst
	}
}

// streamTopN runs the bounded-heap collection over the unprojected stream
// and projects the k winners. A shard over positions [lo,hi) numbers its
// surviving rows from lo: they are at most hi-lo, so the numbering orders
// rows across contiguous shards exactly as the sequential scan meets them.
func (c *execCtx) streamTopN(q *ast.Query, ss *streamSource) ([][]value.Value, error) {
	k := q.Limit
	aliases := aliasMap(q)
	collect := func(sc *execCtx, lo, hi int) ([]topNRow, error) {
		h := &topNHeap{order: q.OrderBy, k: k}
		it := ss.chain(sc, lo, hi, false)
		seq := lo
		for {
			b, err := it.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				return h.rows, nil
			}
			if k == 0 {
				continue // LIMIT 0 still scans (stats match), keeps nothing
			}
			for _, row := range b {
				en := &env{rel: ss.layout, row: row, aliases: aliases, ctx: sc}
				keys := make([]value.Value, len(q.OrderBy))
				for i, o := range q.OrderBy {
					v, err := eval(en, o.Expr)
					if err != nil {
						return nil, err
					}
					keys[i] = v
				}
				h.admit(topNRow{keys: keys, row: row, seq: seq})
				seq++
			}
		}
	}

	var cands []topNRow
	if shards := c.shardCount(ss.n); shards <= 1 {
		var err error
		if cands, err = collect(c, 0, ss.n); err != nil {
			return nil, err
		}
	} else {
		parts, err := shardedCollectBounds(c, shardStreamBounds(ss.n, shards, c.batch), collect)
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			cands = append(cands, p...)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return topNLess(q.OrderBy, &cands[i], &cands[j]) })
	if len(cands) > k {
		cands = cands[:k]
	}
	rows := make([][]value.Value, len(cands))
	for i := range cands {
		en := &env{rel: ss.layout, row: cands[i].row, aliases: aliases, ctx: c}
		vals, err := projectRow(en, q)
		if err != nil {
			return nil, err
		}
		rows[i] = vals
	}
	return rows, nil
}
