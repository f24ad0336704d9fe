package main

// Tracing for the traced run. A recorder holds spans in memory and writes
// them out when the run ends. tracingExec sits on the client→server seam
// (client.Client.SetExecutor) and records one span per executor call,
// parented to the query span the conn opened, and keeps the RemoteSQL and
// parameters of the calls it sees so they can be replayed afterwards
// against the server, the engine and the wire decoder alone.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/ast"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/value"
)

// span is one timed call. Query is the id of the client query it belongs
// to (the index of that query's own span); Parent is -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Query  int    `json:"query"`
}

// recorder collects spans. A nil recorder records nothing, which is how
// the conns run outside the traced window.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its id. A root span (parent -1) starts a
// query of its own.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	q := id
	if parent >= 0 {
		q = r.spans[parent].Query
	}
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Query: q})
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes splits the recorded query spans into client self time (the
// query span minus its executor children) and executor time, summed over
// the queries. A child outside its parent's interval is an error: the
// split query = self + executor would not hold.
func (r *recorder) layerTimes() (queries int, self, exec time.Duration, err error) {
	for _, s := range r.spans {
		d := time.Duration(s.End - s.Start)
		if s.Parent < 0 {
			queries++
			self += d
			continue
		}
		if p := r.spans[s.Parent]; s.Start < p.Start || s.End > p.End {
			return 0, 0, 0, fmt.Errorf("span %s [%d, %d] outside its query [%d, %d]", s.Name, s.Start, s.End, p.Start, p.End)
		}
		self -= d
		exec += d
	}
	return queries, self, exec, nil
}

// call is one captured executor call, kept for the replays.
type call struct {
	q      *ast.Query
	params map[string]value.Value
	span   time.Duration
}

// tracingExec wraps a client's executor. It implements client.Executor;
// tracingStmtExec adds client.StmtExecutor, and wrapExecutor picks the one
// the wrapped executor matches, so the client keeps its prepared-by-id
// path when (and only when) it had one.
type tracingExec struct {
	inner client.Executor
	conn  *coreConn
	// capture, when set, receives every call made while it is open.
	capture *[]call
	// stmtQ maps a prepared statement id to its RemoteSQL.
	stmtQ map[uint64]*ast.Query
}

type tracingStmtExec struct {
	*tracingExec
	stmts client.StmtExecutor
}

// wrapExecutor returns the executor to install and its tracing core.
func wrapExecutor(inner client.Executor, cc *coreConn) (client.Executor, *tracingExec) {
	t := &tracingExec{inner: inner, conn: cc, stmtQ: make(map[uint64]*ast.Query)}
	if se, ok := inner.(client.StmtExecutor); ok {
		return &tracingStmtExec{tracingExec: t, stmts: se}, t
	}
	return t, t
}

// timed runs fn inside a span under the conn's current query and captures
// the call.
func (t *tracingExec) timed(name string, q *ast.Query, params map[string]value.Value, fn func() error) error {
	rec := t.conn.rec
	id := rec.begin(name, t.conn.query)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	rec.end(id)
	if t.capture != nil && err == nil {
		*t.capture = append(*t.capture, call{q: q, params: params, span: d})
	}
	return err
}

func (t *tracingExec) Execute(q *ast.Query, params map[string]value.Value) (resp *server.Response, err error) {
	err = t.timed("executor.execute", q, params, func() error {
		resp, err = t.inner.Execute(q, params)
		return err
	})
	return resp, err
}

func (t *tracingExec) ExecuteStream(q *ast.Query, params map[string]value.Value, w io.Writer) (st *server.StreamStats, err error) {
	err = t.timed("executor.execute_stream", q, params, func() error {
		st, err = t.inner.ExecuteStream(q, params, w)
		return err
	})
	return st, err
}

func (t *tracingStmtExec) PrepareStmt(q *ast.Query) (uint64, error) {
	id, err := t.stmts.PrepareStmt(q)
	if err == nil {
		t.stmtQ[id] = q
	}
	return id, err
}

func (t *tracingStmtExec) ExecuteStmt(id uint64, params map[string]value.Value) (resp *server.Response, err error) {
	err = t.timed("executor.execute_stmt", t.stmtQ[id], params, func() error {
		resp, err = t.stmts.ExecuteStmt(id, params)
		return err
	})
	return resp, err
}

func (t *tracingStmtExec) ExecuteStmtStream(id uint64, params map[string]value.Value, w io.Writer) (st *server.StreamStats, err error) {
	err = t.timed("executor.execute_stmt_stream", t.stmtQ[id], params, func() error {
		st, err = t.stmts.ExecuteStmtStream(id, params, w)
		return err
	})
	return st, err
}

func (t *tracingStmtExec) CloseStmt(id uint64) error {
	delete(t.stmtQ, id)
	return t.stmts.CloseStmt(id)
}
