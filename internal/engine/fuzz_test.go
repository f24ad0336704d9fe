package engine

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/sqlparser"
	"repro/internal/value"
)

// FuzzStreamModes is the differential oracle over the engine's execution
// modes: a parsed query runs over each test catalog under the sequential
// materialized reference (BatchSize 0, Parallelism 1) and under every cell
// of BatchSize × Parallelism × UseIndexes, through both Execute and a
// drained ExecuteStream. Either every run fails or every run renders the
// same result. A crash anywhere (a panic, a stack overflow) fails the
// target outright.
//
// CI runs it for a fixed budget:
//
//	go test -run '^$' -fuzz FuzzStreamModes -fuzztime 30s ./internal/engine/
func FuzzStreamModes(f *testing.F) {
	for _, sql := range streamQueries {
		f.Add(sql)
	}
	for _, sql := range joinModeQueries {
		f.Add(sql)
	}
	// Alias cycles once overflowed the stack.
	f.Add(`SELECT nope AS nope FROM orders ORDER BY nope`)
	f.Add(`SELECT a AS b, b AS a FROM orders ORDER BY a`)
	// Bad names that only some modes' rows reach (LIMIT early exit, top-N
	// winners, lazy group finalization, short-circuit) once failed in one
	// mode and succeeded in another.
	f.Add(`SELECT nope FROM facts LIMIT 0`)
	f.Add(`SELECT f_id FROM facts WHERE f_id < 5 OR nope = 1 LIMIT 3`)
	f.Add(`SELECT CASE WHEN f_id > 5 THEN nope ELSE 1 END FROM facts ORDER BY f_id LIMIT 3`)
	f.Add(`SELECT f_id, SUM(f_val) FROM facts GROUP BY f_id HAVING f_id < 3 OR nope > 1 LIMIT 2`)
	// Sharded float sums regroup their additions (parallel.go).
	f.Add(`SELECT SUM(f_val / 7) FROM facts`)

	engines := []*Engine{fixture(f), parallelFixture(f, 200), joinFixture(f, 200, 20)}
	f.Fuzz(func(t *testing.T, sql string) {
		if len(sql) > 512 {
			t.Skip("input over 512 bytes")
		}
		q, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		if fromEntries(q) > 2 {
			t.Skip("more than 2 FROM entries")
		}
		for _, e := range engines {
			checkStreamModes(t, e, q)
		}
	})
}

// fromEntries counts the FROM entries of q and of every query nested in it.
func fromEntries(q *ast.Query) int {
	n := len(q.From)
	for _, f := range q.From {
		if f.Sub != nil {
			n += fromEntries(f.Sub)
		}
	}
	visit := func(e ast.Expr) {
		for _, sub := range ast.Subqueries(e) {
			n += fromEntries(sub)
		}
	}
	visit(q.Where)
	visit(q.Having)
	for _, p := range q.Projections {
		visit(p.Expr)
	}
	for _, g := range q.GroupBy {
		visit(g)
	}
	for _, o := range q.OrderBy {
		visit(o.Expr)
	}
	return n
}

// checkStreamModes runs q over e in every mode and compares each run with
// the sequential materialized reference.
func checkStreamModes(t *testing.T, e *Engine, q *ast.Query) {
	defer func() { e.Parallelism, e.BatchSize, e.UseIndexes = 1, 0, false }()
	e.Parallelism, e.BatchSize, e.UseIndexes = 1, 0, false
	ref, refErr := e.Execute(q, nil)
	var want string
	if refErr == nil {
		want = renderModes(ref)
	}
	check := func(mode string, res *Result, err error) {
		t.Helper()
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: err %v, reference err %v\n%s", mode, err, refErr, q.SQL())
		}
		if err == nil {
			if got := renderModes(res); got != want {
				t.Fatalf("%s diverges from the reference\n%s\ngot:\n%s\nwant:\n%s", mode, q.SQL(), got, want)
			}
		}
	}
	for _, bs := range []int{1, 7, 64} {
		for _, par := range []int{1, 4} {
			for _, idx := range []bool{false, true} {
				e.Parallelism, e.BatchSize, e.UseIndexes = par, bs, idx
				cell := fmt.Sprintf("bs=%d p=%d idx=%v", bs, par, idx)
				res, err := e.Execute(q, nil)
				check("Execute "+cell, res, err)
				res, err = drainStreamErr(e, q)
				check("ExecuteStream "+cell, res, err)
			}
		}
	}
}

// renderModes is renderResult with floats at 12 significant digits: the
// one documented difference between modes (parallel.go) is that sharded
// SUM/AVG over floats may differ from the sequential fold in the last ULP.
func renderModes(r *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			if v.K == value.Float {
				b.WriteString(strconv.FormatFloat(v.F, 'g', 12, 64))
			} else {
				b.WriteString(v.String())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// drainStreamErr executes q through ExecuteStream and drains it, returning
// the first error instead of failing.
func drainStreamErr(e *Engine, q *ast.Query) (*Result, error) {
	s, err := e.ExecuteStream(q, nil)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &Result{Cols: s.Cols()}
	for {
		b, err := s.Next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return res, nil
		}
		res.Rows = append(res.Rows, b...)
	}
}
