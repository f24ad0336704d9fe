package main

// The traced run: per-layer metrics. It builds the deployment from the
// internal packages (coreDeploy), warms it up, and splits the window into
// two halves over the same op stream: first traced, with a tracingExec on
// every client and the count block's executor calls captured, then
// untraced, to give the tracing overhead and the runtime counters. The replays and timed direct
// calls into sqlparser, planner, enc and wire run after both windows,
// outside every query span.

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/planner"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/value"
	"repro/internal/wire"
)

// counters is a snapshot of every cumulative counter the traced window
// reads, so the window's work is the difference of two snapshots.
type counters struct {
	planHits, planMisses int64
	parses               int64
	batches              int64 // result batches the clients' transport conns received
	io                   storage.IOStats
	srv                  transport.ServerStats
	indexLookups         int64
	indexSkipped         int64
}

func (c *core) snapshot(parses *atomic.Int64) counters {
	var s counters
	for _, cc := range c.clients {
		h, m := cc.planCache()
		s.planHits += h
		s.planMisses += m
		if cc.tc != nil {
			s.batches += cc.tc.Stats().Batches
		}
	}
	s.parses = parses.Load()
	s.io = c.encDB.Cat.IO()
	if c.listener != nil {
		s.srv = c.listener.Stats()
	}
	s.indexLookups, s.indexSkipped = c.srv.Engine.IndexStats()
	return s
}

func (r *runner) traced() (*report, error) {
	if err := checkDesign(r.w, r.seed); err != nil {
		return nil, err
	}
	dir, err := r.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	c, err := coreDeploy(r.w, r.seed, dir)
	if err != nil {
		return nil, err
	}
	defer c.close()
	if err := r.describe(c.deployment, dir); err != nil {
		return nil, err
	}
	dom, err := readDomain(c.deployment)
	if err != nil {
		return nil, err
	}
	// The tracing executors go in before the warm-up, so they see the
	// prepared statements the warm-up registers; spans start with the
	// traced window.
	var parses atomic.Int64
	tracers := make([]*tracingExec, len(c.clients))
	for i, cc := range c.clients {
		cc.cl.ParseHook = func(string) { parses.Add(1) }
		var ex client.Executor
		ex, tracers[i] = wrapExecutor(cc.base, cc)
		cc.cl.SetExecutor(ex)
	}
	checks, failed := warmUp(r.w, c.deployment, r.seed, dom)
	attempted := int64(r.w.warm * len(c.clients))

	// Traced window.
	rec := newRecorder()
	captures := make([][]call, len(c.clients))
	for _, cc := range c.clients {
		cc.rec = rec
		cc.tally = tally{}
	}
	atBlock := func(ci, block int) {
		cc := c.clients[ci]
		if block == 0 {
			tracers[ci].capture = &captures[ci]
			return
		}
		if block == 1 {
			tracers[ci].capture = nil
			// The count block is over: freeze its model times and
			// decryption counts.
			cc.frozen = cc.tally
		}
	}
	before := c.snapshot(&parses)
	traced := window(r.w, c.deployment, r.seed, dom, r.dur/2, atBlock)
	after := c.snapshot(&parses)
	r.counts = countsOf(r.w, c.deployment, traced)
	for _, cc := range c.clients {
		if cc.frozen.queries == 0 {
			cc.frozen = cc.tally // the window held a single block
		}
	}

	// Untraced window over the same stream.
	for _, cc := range c.clients {
		cc.rec = nil
		cc.cl.SetExecutor(cc.base)
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	plain := window(r.w, c.deployment, r.seed, dom, r.dur/2, nil)
	runtime.ReadMemStats(&ms1)

	m := metrics{}
	tm, pm := metrics{}, metrics{}
	nTraced, fTraced := r.endToEnd(tm, traced)
	nPlain, fPlain := r.endToEnd(pm, plain)
	attempted += nTraced + nPlain
	failed += fTraced + fPlain
	for _, cr := range traced.clients {
		checks = append(checks, cr.checks...)
	}

	// Layer times from the spans of the traced window.
	queries, self, execTime, err := rec.layerTimes()
	if err != nil {
		return nil, err
	}
	perQ := func(v float64) float64 { return v / float64(queries) }
	m.set("client.self_ms_per_query", "ms", perQ(ms(self)))
	m.set("transport.executor_ms_per_query", "ms", perQ(ms(execTime)))
	m.set("tracing.overhead_p50_frac", "frac", tm["latency_p50_ms"].Value/pm["latency_p50_ms"].Value-1)
	m.set("tracing.overhead_qps_frac", "frac", 1-tm["qps"].Value/pm["qps"].Value)

	// Client counters over the traced window.
	dq := float64(nTraced)
	hits, misses := after.planHits-before.planHits, after.planMisses-before.planMisses
	m.set("client.plancache_hit_rate", "frac", ratio(float64(hits), float64(hits+misses)))
	m.set("client.parses_per_query", "count", float64(after.parses-before.parses)/dq)
	var decrypts, cells int64
	var netServer, netXfer, netCli time.Duration
	for _, cc := range c.clients {
		t := cc.frozen
		decrypts += t.decrypts
		cells += t.cells
		netServer += t.netServer
		netXfer += t.netXfer
		netCli += t.netCli
	}
	m.set("client.decrypts_per_cell", "count", ratio(float64(decrypts), float64(cells)))
	blocks := float64(len(c.clients))
	m.set("netsim.server_s_per_pass", "s", netServer.Seconds()/blocks)
	m.set("netsim.transfer_s_per_pass", "s", netXfer.Seconds()/blocks)
	m.set("netsim.client_s_per_pass", "s", netCli.Seconds()/blocks)

	// Transport and storage counters over the traced window.
	m.set("transport.batches_per_query", "count", float64(after.batches-before.batches)/dq)
	m.set("transport.stmt_exec_frac", "frac", ratio(float64(after.srv.StmtExecs-before.srv.StmtExecs), float64(after.srv.Queries-before.srv.Queries)))
	io := after.io
	io.PageReads -= before.io.PageReads
	io.CacheHits -= before.io.CacheHits
	io.CacheMisses -= before.io.CacheMisses
	io.BytesRead -= before.io.BytesRead
	m.set("storage.cache_hit_rate", "frac", io.HitRate())
	m.set("storage.page_reads_per_query", "count", float64(io.PageReads)/dq)
	m.set("storage.page_kb_read_per_query", "KB", float64(io.BytesRead)/1024/dq)
	segs, err := segmentBytes(dir)
	if err != nil {
		return nil, err
	}
	var segTotal int64
	for _, b := range segs {
		segTotal += b
	}
	m.set("storage.segment_bytes_per_plain_byte", "ratio", float64(segTotal)/float64(c.plainBytes))
	m.set("engine.index_lookups_per_query", "count", float64(after.indexLookups-before.indexLookups)/dq)
	m.set("engine.rows_skipped_by_index_per_query", "count", float64(after.indexSkipped-before.indexSkipped)/dq)

	// Set-up phases and the runtime over the untraced window.
	m.set("designer.run_s", "s", c.designerTime.Seconds())
	m.set("enc.encrypt_s", "s", c.encryptTime.Seconds())
	m.set("runtime.alloc_kb_per_query", "KB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1024/float64(nPlain))
	m.set("runtime.allocs_per_query", "count", float64(ms1.Mallocs-ms0.Mallocs)/float64(nPlain))
	m.set("runtime.gc_pause_ms_per_s", "ms/s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/plain.wall.Seconds())

	// Replays and direct calls, outside every span.
	var calls []call
	for _, cap := range captures {
		calls = append(calls, cap...)
	}
	if err := c.replay(m, calls, float64(r.w.block*len(c.clients))); err != nil {
		return nil, err
	}
	var countOps []op
	for ci := range c.clients {
		next := r.w.stream(r.seed, ci, phaseTimed, dom)
		for i := 0; i < r.w.block; i++ {
			countOps = append(countOps, next())
		}
	}
	if err := c.direct(m, countOps); err != nil {
		return nil, err
	}

	bad := verify(c.deployment, checks)
	if err := rec.write(r.spansPath()); err != nil {
		return nil, err
	}
	r.note(map[string]any{
		"workload": r.w.name, "seed": r.seed, "spans": len(rec.spans), "spans_file": r.spansPath(),
		"checked": len(checks), "mismatched": bad, "replayed_calls": len(calls),
		"traced_latency_p50_ms": tm["latency_p50_ms"].Value, "untraced_latency_p50_ms": pm["latency_p50_ms"].Value,
		"traced_qps": tm["qps"].Value, "untraced_qps": pm["qps"].Value,
	})
	return &report{Correct: bad == 0 && failed == 0, Attempted: attempted, Failed: failed + bad, Metrics: m}, nil
}

// replay re-runs the count block's captured executor calls against the
// server alone (ExecuteStream into io.Discard), the engine alone
// (Engine.Execute) and the wire decoder alone (wire.BatchReader over the
// captured stream bytes). The per-query figures divide by the count
// block's client queries.
func (c *core) replay(m metrics, calls []call, queries float64) error {
	var serverT, engineT, decodeT, spanT time.Duration
	var streamBytes int64
	var st engine.Stats
	for _, cl := range calls {
		start := time.Now()
		if _, err := c.srv.ExecuteStream(cl.q, cl.params, io.Discard); err != nil {
			return err
		}
		serverT += time.Since(start)
		spanT += cl.span

		var buf bytes.Buffer
		if _, err := c.srv.ExecuteStream(cl.q, cl.params, &buf); err != nil {
			return err
		}
		streamBytes += int64(buf.Len())
		start = time.Now()
		br, err := wire.NewBatchReader(&buf)
		if err != nil {
			return err
		}
		for {
			rows, err := br.Next()
			if err != nil {
				return err
			}
			if rows == nil {
				break
			}
		}
		decodeT += time.Since(start)

		start = time.Now()
		res, err := c.srv.Engine.Execute(cl.q, cl.params)
		if err != nil {
			return err
		}
		engineT += time.Since(start)
		st.Add(res.Stats)
	}
	perQ := func(v float64) float64 { return v / queries }
	m.set("transport.overhead_us_per_query", "us", perQ(float64(spanT-serverT)/1e3))
	m.set("server.exec_ms_per_query", "ms", perQ(ms(serverT)))
	m.set("server.udf_ms_per_query", "ms", perQ(float64(st.UDFNanos)/1e6))
	m.set("engine.exec_ms_per_query", "ms", perQ(ms(engineT)))
	m.set("engine.rows_scanned_per_query", "count", perQ(float64(st.RowsScanned)))
	m.set("engine.bytes_scanned_per_query", "bytes", perQ(float64(st.BytesScanned)))
	m.set("engine.subquery_runs_per_query", "count", perQ(float64(st.SubqueryRuns)))
	m.set("packing.extra_bytes_per_query", "bytes", perQ(float64(st.ExtraBytes)))
	m.set("wire.decode_us_per_kb", "us/KB", ratio(float64(decodeT)/1e3, float64(streamBytes)/1024))
	return nil
}

// direct times the trusted client's front half call by call over the
// count block's ops: sqlparser.Parse per distinct text,
// planner.Prepare + Context.BestPlan per shape, and Template.Rebind (the
// parameter encryption a cached plan does per execution) per op.
func (c *core) direct(m metrics, ops []op) error {
	var parseT, planT, rebindT time.Duration
	var parses, plans, rebinds int
	parsed := map[string]bool{}
	templates := map[string]*planner.Template{}
	for _, o := range ops {
		start := time.Now()
		q, err := sqlparser.Parse(o.sql)
		if err != nil {
			return err
		}
		if !parsed[o.sql] {
			parsed[o.sql] = true
			parseT += time.Since(start)
			parses++
		}
		shape, hoisted, _ := planner.HoistLiterals(q, "qp")
		vals := make(map[string]value.Value, len(hoisted)+len(o.params))
		for k, v := range hoisted {
			vals[k] = v
		}
		for k, v := range o.params {
			vals[k] = v
		}
		key := shape.SQL()
		tmpl, seen := templates[key]
		if !seen {
			start = time.Now()
			prepared, err := planner.Prepare(q, o.params)
			if err == nil {
				_, err = c.ctx.BestPlan(prepared)
			}
			if err == nil {
				planT += time.Since(start)
				plans++
			}
			// The template the plan cache would hold for this shape.
			if prepared, slots, err := planner.PrepareTagged(shape, vals); err == nil {
				if plan, err := c.ctx.BestPlan(prepared); err == nil {
					tmpl, _ = planner.Parameterize(plan, slots)
				}
			}
			templates[key] = tmpl
		}
		if tmpl == nil {
			continue
		}
		start = time.Now()
		if _, _, err := tmpl.Rebind(c.keys, vals); err != nil {
			return err
		}
		rebindT += time.Since(start)
		rebinds++
	}
	m.set("sqlparser.parse_us", "us", ratio(float64(parseT)/1e3, float64(parses)))
	m.set("planner.plan_ms", "ms", ratio(ms(planT), float64(plans)))
	m.set("enc.rebind_us", "us", ratio(float64(rebindT)/1e3, float64(rebinds)))
	return nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
