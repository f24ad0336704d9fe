package main

// Two ways to stand up the same deployment. apiDeploy goes through the
// public monomi API with DefaultOptions, which is what a user gets; the
// untraced run measures it. coreDeploy assembles the same system from the
// internal packages, step for step as monomi.Encrypt, Serve and
// ConnectRemote do, so that the traced run can reach the client and put a
// tracing executor on the client→server seam.

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	monomi "repro"
	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/designer"
	"repro/internal/enc"
	"repro/internal/engine"
	"repro/internal/netsim"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/sqlparser"
	"repro/internal/storage"
	"repro/internal/tpch"
	"repro/internal/transport"
	"repro/internal/value"
)

// deployment is a running system: one conn per client plus the plaintext
// reference and the server-side footprint.
type deployment struct {
	conns      []conn
	plaintext  func(sql string) ([][]any, error)
	plainBytes int64
	encBytes   int64
	close      func()
}

// conn is one client connection.
type conn interface {
	run(o op) (outcome, error)
	planCache() (hits, misses int64)
}

// outcome is what a query returned.
type outcome struct {
	rows      [][]any
	cols      int
	wireBytes int64
}

// options are the deployment's monomi options: DefaultOptions plus the
// workload's backend.
func (w *workload) options(dir string) monomi.Options {
	o := monomi.DefaultOptions()
	if w.backend == "disk" {
		o.Backend, o.DataDir, o.BlockCacheBytes = "disk", dir, w.cacheBytes
	}
	return o
}

// apiDeploy builds the workload's deployment through the public API.
func apiDeploy(w *workload, seed int64, dir string) (*deployment, error) {
	db, err := monomi.TPCH(w.sf, seed)
	if err != nil {
		return nil, err
	}
	sys, err := monomi.Encrypt(db, monomi.Workload(w.designWorkload()), w.options(dir))
	if err != nil {
		return nil, err
	}
	_, _, plainBytes, encBytes := sys.DesignStats()
	d := &deployment{
		plaintext: func(sql string) ([][]any, error) {
			r, err := sys.QueryPlaintext(sql)
			if err != nil {
				return nil, err
			}
			return r.Data, nil
		},
		plainBytes: plainBytes, encBytes: encBytes,
	}
	closers := []func() error{sys.Close}
	d.close = func() {
		for i := len(closers) - 1; i >= 0; i-- {
			_ = closers[i]() // teardown after the run; nothing to report
		}
	}
	if !w.served {
		d.conns = []conn{&apiConn{sys: sys}}
		return d, nil
	}
	srv, err := sys.Serve("127.0.0.1:0", monomi.ServeConfig{})
	if err != nil {
		d.close()
		return nil, err
	}
	closers = append(closers, srv.Close)
	for i := 0; i < w.clients; i++ {
		remote, err := sys.ConnectRemote(srv.Addr().String())
		if err != nil {
			d.close()
			return nil, err
		}
		closers = append(closers, remote.Close)
		d.conns = append(d.conns, &apiConn{sys: remote})
	}
	return d, nil
}

// apiConn runs queries through a monomi.System.
type apiConn struct {
	sys   *monomi.System
	stmts map[string]*monomi.Stmt
}

func (c *apiConn) run(o op) (outcome, error) {
	var r *monomi.Rows
	var err error
	if o.params == nil {
		r, err = c.sys.Query(o.sql)
	} else {
		var st *monomi.Stmt
		if st, err = c.stmt(o.sql); err == nil {
			params := make(map[string]any, len(o.params))
			for k, v := range o.params {
				params[k] = v
			}
			r, err = st.Query(params)
		}
	}
	if err != nil {
		return outcome{}, err
	}
	return outcome{rows: r.Data, cols: len(r.Cols), wireBytes: r.WireBytes}, nil
}

func (c *apiConn) stmt(sql string) (*monomi.Stmt, error) {
	if st, ok := c.stmts[sql]; ok {
		return st, nil
	}
	st, err := c.sys.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if c.stmts == nil {
		c.stmts = make(map[string]*monomi.Stmt)
	}
	c.stmts[sql] = st
	return st, nil
}

func (c *apiConn) planCache() (int64, int64) {
	st := c.sys.PlanCacheStats()
	return st.Hits, st.Misses
}

// core is a deployment assembled from the internal packages, with the
// handles the traced run reads its counters from.
type core struct {
	*deployment
	keys     *enc.KeyStore
	ctx      *planner.Context
	srv      *server.Server
	encDB    *enc.DB
	listener *transport.Server // nil in-process
	clients  []*coreConn

	designerTime, encryptTime time.Duration
}

// coreDeploy builds the workload's deployment the way monomi.Encrypt,
// Serve and ConnectRemote do.
func coreDeploy(w *workload, seed int64, dir string) (*core, error) {
	opts := w.options(dir)
	cat, err := tpch.Generate(tpch.ScaleFactor(w.sf), seed)
	if err != nil {
		return nil, err
	}
	net := netsim.Default()
	ks, err := enc.NewKeyStore(opts.MasterKey, opts.PaillierBits)
	if err != nil {
		return nil, err
	}
	cost := planner.DefaultCostModel(net)
	cost.HomCipherBytes = ks.Paillier().CiphertextSize()
	wl, err := designer.ParseWorkload(w.designWorkload())
	if err != nil {
		return nil, err
	}
	dopts := designer.MonomiOptions()
	dopts.SpaceBudget = opts.SpaceBudget
	start := time.Now()
	dres, err := designer.Run(cat, wl, ks, cost, dopts)
	if err != nil {
		return nil, err
	}
	designerTime := time.Since(start)
	becfg := storage.BackendConfig{Dir: dir, CacheBytes: opts.BlockCacheBytes}
	if becfg.Kind, err = storage.ParseBackendKind(opts.Backend); err != nil {
		return nil, err
	}
	start = time.Now()
	encDB, err := enc.EncryptDatabaseOn(cat, dres.Design, ks, opts.Parallelism, becfg)
	if err != nil {
		return nil, err
	}
	encryptTime := time.Since(start)
	if err := buildPlainIndexes(cat, dres.Design); err != nil {
		return nil, err
	}
	srv := server.New(encDB, net)
	dres.Context.EnablePrefilter = true
	srv.SetParallelism(opts.Parallelism)
	srv.SetBatchSize(opts.BatchSize)
	srv.SetIndexes(opts.Indexes)
	dres.Context.Indexes = opts.Indexes
	plain := engine.New(cat)
	plain.Parallelism, plain.BatchSize, plain.UseIndexes = opts.Parallelism, opts.BatchSize, opts.Indexes

	c := &core{
		keys: ks, ctx: dres.Context, srv: srv, encDB: encDB,
		designerTime: designerTime, encryptTime: encryptTime,
	}
	c.deployment = &deployment{
		plaintext: func(sql string) ([][]any, error) {
			q, err := sqlparser.Parse(sql)
			if err != nil {
				return nil, err
			}
			res, err := plain.Execute(q, nil)
			if err != nil {
				return nil, err
			}
			return anyRows(res.Rows), nil
		},
		plainBytes: cat.TotalBytes(), encBytes: encDB.TotalBytes(),
		close: c.shutdown,
	}
	newClient := func(exec client.Executor) *client.Client {
		var cl *client.Client
		if exec == nil {
			cl = client.New(ks, srv, dres.Context, net)
		} else {
			cl = client.NewRemote(ks, exec, encDB.Meta, dres.Context, net)
		}
		cl.Parallelism, cl.BatchSize, cl.StreamWire = opts.Parallelism, opts.BatchSize, opts.StreamWire
		return cl
	}
	if !w.served {
		c.addClient(newClient(nil), nil)
		return c, nil
	}
	if c.listener, err = transport.Listen(srv, "127.0.0.1:0", transport.Config{}); err != nil {
		c.shutdown()
		return nil, err
	}
	for i := 0; i < w.clients; i++ {
		tc, err := transport.Dial(c.listener.Addr().String())
		if err != nil {
			c.shutdown()
			return nil, err
		}
		c.addClient(newClient(tc), tc)
	}
	return c, nil
}

func (c *core) addClient(cl *client.Client, tc *transport.Conn) {
	cc := &coreConn{cl: cl, tc: tc, base: cl.Executor()}
	c.clients = append(c.clients, cc)
	c.conns = append(c.conns, cc)
}

// shutdown mirrors monomi.System.Close for the served and serving sides.
func (c *core) shutdown() {
	for _, cc := range c.clients {
		cc.cl.Close()
		if cc.tc != nil {
			_ = cc.tc.Close() // teardown; the run is over
		}
	}
	if c.listener != nil {
		_ = c.listener.Close()
	}
	c.keys.Close()
	_ = c.encDB.Cat.Close()
}

// buildPlainIndexes gives the plaintext reference the mirror indexes
// monomi.Encrypt builds: a hash index on every base column the design
// encrypts with DET, an ordered index on every OPE column.
func buildPlainIndexes(cat *storage.Catalog, design *enc.Design) error {
	for _, it := range design.Items {
		cr, ok := it.Expr.(*ast.ColumnRef)
		if !ok {
			continue
		}
		t, err := cat.Table(it.Table)
		if err != nil {
			continue
		}
		switch it.Scheme {
		case enc.DET:
			_, err = t.EnsureIndex(cr.Column, storage.HashIndex)
		case enc.OPE:
			_, err = t.EnsureIndex(cr.Column, storage.OrderedIndex)
		default:
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// coreConn runs queries through an internal client. rec is nil outside
// the traced window; base is the client's own executor.
type coreConn struct {
	cl    *client.Client
	tc    *transport.Conn // nil in-process
	base  client.Executor
	stmts map[string]*client.Stmt
	rec   *recorder
	// query is the span of the query in flight; the tracing executor
	// parents its spans to it.
	query int
	// tally sums what the client reports per query; frozen keeps the
	// traced window's count-block tally.
	tally, frozen tally
}

// tally sums the client's per-query figures: decryptions, output cells
// and the paper's modelled server, transfer and client times.
type tally struct {
	queries                    int
	decrypts, cells            int64
	netServer, netXfer, netCli time.Duration
}

func (c *coreConn) run(o op) (outcome, error) {
	c.query = c.rec.begin("client.query", -1)
	var res *client.Result
	var err error
	if o.params == nil {
		res, err = c.cl.Query(o.sql, nil)
	} else {
		var st *client.Stmt
		if st, err = c.stmt(o.sql); err == nil {
			res, err = st.Execute(o.params)
		}
	}
	c.rec.end(c.query)
	if err != nil {
		return outcome{}, err
	}
	t := &c.tally
	t.queries++
	t.decrypts += res.Decrypts
	t.cells += int64(len(res.Rows) * len(res.Cols))
	t.netServer += res.ServerTime
	t.netXfer += res.TransferTime
	t.netCli += res.ClientTime
	return outcome{rows: anyRows(res.Rows), cols: len(res.Cols), wireBytes: res.WireBytes}, nil
}

func (c *coreConn) stmt(sql string) (*client.Stmt, error) {
	if st, ok := c.stmts[sql]; ok {
		return st, nil
	}
	st, err := c.cl.Prepare(sql)
	if err != nil {
		return nil, err
	}
	if c.stmts == nil {
		c.stmts = make(map[string]*client.Stmt)
	}
	c.stmts[sql] = st
	return st, nil
}

func (c *coreConn) planCache() (int64, int64) {
	st := c.cl.PlanCacheStats()
	return st.Hits, st.Misses
}

// anyRows converts engine rows into the values monomi.Rows carries.
func anyRows(rows [][]value.Value) [][]any {
	out := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.K {
			case value.Null:
			case value.Int, value.Bool:
				vals[j] = v.I
			case value.Float:
				vals[j] = v.F
			case value.Str:
				vals[j] = v.S
			case value.Date:
				vals[j] = value.FormatDate(v.I)
			case value.Bytes:
				vals[j] = v.B
			}
		}
		out[i] = vals
	}
	return out
}

// segmentBytes sums the disk backend's segment files.
func segmentBytes(dir string) (map[string]int64, error) {
	out := make(map[string]int64)
	if dir == "" {
		return out, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		out[filepath.Base(p[:len(p)-len(".seg")])] = fi.Size()
	}
	return out, nil
}

// checkDesign fails when the workload's shapes change the design the
// designer picks for the TPC-H queries alone.
func checkDesign(w *workload, seed int64) error {
	if len(w.shapes) == 0 {
		return nil
	}
	cat, err := tpch.Generate(tpch.ScaleFactor(w.sf), seed)
	if err != nil {
		return err
	}
	opts := w.options("")
	ks, err := enc.NewKeyStore(opts.MasterKey, opts.PaillierBits)
	if err != nil {
		return err
	}
	defer ks.Close()
	cost := planner.DefaultCostModel(netsim.Default())
	cost.HomCipherBytes = ks.Paillier().CiphertextSize()
	dopts := designer.MonomiOptions()
	dopts.SpaceBudget = opts.SpaceBudget
	design := func(labeled map[string]string) (map[string]bool, error) {
		wl, err := designer.ParseWorkload(labeled)
		if err != nil {
			return nil, err
		}
		res, err := designer.Run(cat, wl, ks, cost, dopts)
		if err != nil {
			return nil, err
		}
		items := make(map[string]bool)
		for _, it := range res.Design.Items {
			items[it.Table+"."+it.ExprSQL()+"/"+it.Scheme.String()] = true
		}
		return items, nil
	}
	base, err := design(tpchWorkload())
	if err != nil {
		return err
	}
	with, err := design(w.designWorkload())
	if err != nil {
		return err
	}
	for item := range with {
		if !base[item] {
			return fmt.Errorf("workload %s adds %s to the TPC-H design", w.name, item)
		}
	}
	if len(with) != len(base) {
		return fmt.Errorf("workload %s changes the TPC-H design (%d items, TPC-H alone %d)", w.name, len(with), len(base))
	}
	return nil
}
