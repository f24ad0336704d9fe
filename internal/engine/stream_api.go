package engine

import (
	"repro/internal/ast"
	"repro/internal/value"
)

// Public streaming execution API. ExecuteStream is the pull counterpart of
// Execute: the same query semantics (projection, grouping, DISTINCT, ORDER
// BY, LIMIT — byte-identical rows), delivered as an incremental sequence of
// row batches instead of one materialized Result. It is the engine-side
// half of the streamed wire protocol: the server pulls batches from a
// ResultStream and frames each one onto the wire as it is produced, so for
// pipeline-eligible queries the first batch crosses the trust boundary
// while the scan is still running.
//
// pipelinedStream is the pull sink over the stream source of stream.go
// (the collect sink behind Execute is the other). Its delivery modes:
//
//   - Pipelined rows: a non-grouped query with no ORDER BY pulls the
//     source's projecting chain, one batch per Next call, with LIMIT
//     counting the stream down and closing the scan early and DISTINCT
//     emitting first occurrences through a seen-set. A join's build sides
//     materialize when the source opens, before the first batch. When the
//     input is large enough, production shards: Parallelism workers each
//     run their own chain over a batch-aligned row range and a merger
//     emits the per-shard queues strictly in shard order (stream_shard.go)
//     — same rows, same order, one consumer, many producers.
//   - Grouped emission: a grouped query with no ORDER BY opens its source
//     and accumulates to completion on the first pull (sharded,
//     AggState.Merge in shard order), then finalizes and emits completed
//     groups in output batches (agg.go's groupEmitter), fanning each
//     batch's crypto-heavy Result work across workers — so
//     time-to-first-batch is accumulation + one batch of finalization, not
//     + all of it, and a LIMIT skips the unconsumed groups' Paillier work.
//   - Streamed top-N: ORDER BY … LIMIT over one table runs the (sharded)
//     bounded-heap collection on the first pull and emits the k winners in
//     batches; the full sort input never materializes, though the first
//     batch still requires the whole scan (a sort cannot emit early).
//   - Fallback: every other shape (other ORDER BY sorts, subqueries,
//     derived tables), and a join whose plan or build fails, executes
//     through Execute — including its sharded and collect-sink paths — and
//     the finished rows are emitted in batch-size chunks, released as they
//     are consumed.
//
// A ResultStream has exactly one consumer; its Close cancels any producer
// workers, waits for them to exit, and folds the stats of the work they
// actually performed — no goroutine outlives the stream, no matter how
// early the consumer abandons it.

// ResultStream is a pull-based streaming query result. The consumer calls
// Next until it returns nil (stream exhausted) and must call Close if it
// abandons the stream early.
type ResultStream struct {
	cols  []string
	ctx   *execCtx
	next  func() ([][]value.Value, error)
	close func()
	done  bool
}

// ExecuteStream starts q and returns its result as a batch stream. The
// column names are available immediately; batches arrive via Next. The
// batch size is Engine.BatchSize (DefaultBatchSize if unset), and the
// pipelined mode additionally requires BatchSize > 0 — with BatchSize 0
// every query takes the materialized fallback, chunked for delivery.
func (e *Engine) ExecuteStream(q *ast.Query, params map[string]value.Value) (*ResultStream, error) {
	ctx := e.newExecCtx(params)
	if err := ctx.checkNames(q); err != nil {
		return nil, err
	}
	if s, ok := ctx.pipelinedStream(q); ok {
		return s, nil
	}
	// Fallback: run to completion through the full executor (sharded and
	// internally streamed as configured), then chunk the finished rows.
	res, err := e.Execute(q, params)
	if err != nil {
		return nil, err
	}
	*ctx.stats = res.Stats
	// RowsOut accumulates as batches are emitted (Next), mirroring the
	// pipelined path; reset the materialized total to avoid double count.
	ctx.stats.RowsOut = 0
	size := e.BatchSize
	if size <= 0 {
		size = DefaultBatchSize
	}
	// sliceIterator releases each chunk's row pointers as it is emitted:
	// once the consumer has shipped a chunk, the stream must not pin it
	// (or the ciphertext blobs it references) until the end.
	si := &sliceIterator{rows: res.Rows, size: size}
	return &ResultStream{cols: res.Cols, ctx: ctx, next: si.next, close: si.close}, nil
}

// pipelinedStream is the pull sink: it dispatches q to its incremental
// delivery mode over q's stream source (see the package comment above).
// ok=false means the caller must take the materialized fallback — also
// when opening the source fails to plan or build a join, so the error
// surfaces identically from the materialized executor.
func (c *execCtx) pipelinedStream(q *ast.Query) (*ResultStream, bool) {
	if !c.streamable(q, nil) {
		return nil, false
	}
	grouped := c.isGrouped(q)
	if len(q.OrderBy) > 0 && (grouped || !streamsTopN(q)) {
		// Full sorts fall back: the grouped and DISTINCT variants, and
		// joins, need the materialized sort over their finished output.
		return nil, false
	}
	if grouped {
		return c.groupedStream(q), true
	}
	ss, _, err := c.openStream(q, nil)
	if err != nil {
		return nil, false
	}
	if len(q.OrderBy) > 0 {
		return c.topNStream(q, ss), true
	}
	return c.rowStream(q, ss), true
}

// newLimitedStream wraps a pipeline iterator in the public ResultStream,
// applying the LIMIT countdown: the producer is closed — cancelling any
// sharded workers — the moment enough rows have been emitted.
func (c *execCtx) newLimitedStream(q *ast.Query, it batchIterator) *ResultStream {
	remaining := q.Limit // < 0 = unlimited
	var names []string
	for _, ci := range projectionCols(q) {
		names = append(names, ci.name)
	}
	s := &ResultStream{cols: names, ctx: c, close: it.close}
	s.next = func() ([][]value.Value, error) {
		if remaining == 0 {
			it.close()
			return nil, nil
		}
		b, err := it.next()
		if err != nil || b == nil {
			return nil, err
		}
		if remaining > 0 {
			if len(b) >= remaining {
				b = b[:remaining]
				remaining = 0
				it.close()
			} else {
				remaining -= len(b)
			}
		}
		return b, nil
	}
	return s
}

// rowStream builds the non-grouped pipelined producer over the source's
// projecting chain [→ distinct], sharded across Parallelism workers
// through the shard-order merger when the input is large enough. A join's
// build sides materialized when the source opened, before the first Next:
// their scan charges are part of time-to-first-batch, exactly as a real
// hash join cannot probe before its builds finish.
func (c *execCtx) rowStream(q *ast.Query, ss *streamSource) *ResultStream {
	mkChain := func(sc *execCtx, lo, hi int) batchIterator { return ss.chain(sc, lo, hi, true) }
	var it batchIterator
	if shards := c.shardCount(ss.n); shards > 1 {
		it = newShardedStream(c, mkChain, shardStreamBounds(ss.n, shards, c.batch), q.Limit, q.Distinct)
	} else {
		it = mkChain(c, 0, ss.n)
		if q.Distinct {
			it = &distinctIterator{in: it}
		}
	}
	return c.newLimitedStream(q, it)
}

// groupedStream builds the grouped-emission producer: on the first pull
// the source opens and the (sharded) accumulation runs, then the completed
// groups finalize and emit in batches. DISTINCT over grouped output dedups
// the emitted batches in-stream.
func (c *execCtx) groupedStream(q *ast.Query) *ResultStream {
	var it batchIterator = &lazyIterator{mk: func() (batchIterator, error) {
		ss, _, err := c.openStream(q, nil)
		if err != nil {
			return nil, err
		}
		specs := c.collectAggSpecs(q)
		groups, err := c.streamGroups(q, specs, ss)
		if err != nil {
			return nil, err
		}
		return c.newGroupEmitter(q, specs, groups, ss.layout)
	}}
	if q.Distinct {
		it = &distinctIterator{in: it}
	}
	return c.newLimitedStream(q, it)
}

// topNStream builds the ORDER BY … LIMIT producer: the sharded bounded-
// heap collection of streamTopN runs on the first pull and the k winners
// emit in batches.
func (c *execCtx) topNStream(q *ast.Query, ss *streamSource) *ResultStream {
	it := &lazyIterator{mk: func() (batchIterator, error) {
		rows, err := c.streamTopN(q, ss)
		if err != nil {
			return nil, err
		}
		return &sliceIterator{rows: rows, size: c.batch}, nil
	}}
	return c.newLimitedStream(q, it)
}

// Cols returns the result's column names (available before any batch).
func (s *ResultStream) Cols() []string { return s.cols }

// Next returns the next non-empty batch of rows, or nil when the stream is
// exhausted. Rows are delivered in exactly the order Execute would have
// returned them.
func (s *ResultStream) Next() ([][]value.Value, error) {
	if s.done {
		return nil, nil
	}
	b, err := s.next()
	if err != nil {
		s.done = true
		s.close()
		return nil, err
	}
	if b == nil {
		s.done = true
		return nil, nil
	}
	s.ctx.stats.RowsOut += int64(len(b))
	return b, nil
}

// Close releases the stream early (for example when the consumer has
// shipped enough rows). It is idempotent and safe after exhaustion.
func (s *ResultStream) Close() {
	if !s.done {
		s.done = true
		s.close()
	}
}

// Stats returns a snapshot of the execution statistics accumulated so far:
// scan charges grow batch by batch on the pipelined path, so a consumer
// can convert partial progress into simulated time mid-stream. After the
// stream is exhausted the snapshot equals the Stats a materialized Execute
// of the same query would report (modulo RowsOut counting only emitted
// rows).
func (s *ResultStream) Stats() Stats { return *s.ctx.stats }
