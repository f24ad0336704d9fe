package engine

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Up-front name resolution. Row-at-a-time evaluation reports a bad name —
// an unknown or ambiguous column, an unbound parameter, an unknown
// function, an aggregate outside a grouping context — only when some row
// reaches it, and which rows are evaluated differs by execution mode:
// LIMIT stops a stream early, top-N projects only its winners, grouped
// emission finalizes only the groups pulled, an index skips rows. Left to
// evaluation, `SELECT nope FROM t LIMIT 0` would fail materialized and
// succeed streamed. checkNames resolves every name of the query before any
// row is read, so such a query fails the same way in every mode. It covers
// exactly the shapes some mode streams (streamShape); every other query
// runs the materialized operators in every mode.

// checkNames resolves the names q's clauses reference, in the scopes
// evaluation gives them: WHERE, GROUP BY and aggregate arguments see the
// input columns; the SELECT list, HAVING and ORDER BY also see SELECT
// aliases, and aggregates when q is grouped.
func (c *execCtx) checkNames(q *ast.Query) error {
	if !c.streamShape(q) {
		return nil
	}
	in := &relation{}
	for i := range q.From {
		t, _ := c.eng.Cat.Table(q.From[i].Name)
		in.cols = append(in.cols, tableLayout(t, q.From[i].RefName()).cols...)
	}
	grouped := c.isGrouped(q)
	rowScope := append([]ast.Expr{q.Where}, q.GroupBy...)
	if grouped {
		for _, sp := range c.collectAggSpecs(q) {
			if sp.agg != nil {
				rowScope = append(rowScope, sp.agg.Arg)
			} else {
				rowScope = append(rowScope, sp.udf.Args...)
			}
		}
	}
	outScope := []ast.Expr{q.Having}
	for _, p := range q.Projections {
		if cr, ok := p.Expr.(*ast.ColumnRef); ok && cr.Column == "*" {
			break // projectRow returns the input row here, evaluating no further item
		}
		outScope = append(outScope, p.Expr)
	}
	for _, o := range q.OrderBy {
		outScope = append(outScope, o.Expr)
	}
	for _, e := range rowScope {
		if err := c.checkExpr(e, in, nil, false); err != nil {
			return err
		}
	}
	aliases := aliasMap(q)
	for _, e := range outScope {
		if err := c.checkExpr(e, in, aliases, grouped); err != nil {
			return err
		}
	}
	return nil
}

// checkExpr reports the error eval would raise on a row that reaches a bad
// name in e. An alias resolves to its SELECT expression in the same scope
// minus the aliases, as eval resolves it; an aggregate is a name of the
// grouping context, its arguments belonging to the row scope.
func (c *execCtx) checkExpr(e ast.Expr, in *relation, aliases map[string]ast.Expr, grouped bool) error {
	switch x := e.(type) {
	case nil:
		return nil
	case *ast.ColumnRef:
		idx, err := in.indexOf(x.Table, x.Column)
		if err != nil || idx >= 0 {
			return err
		}
		if ae, ok := aliases[x.Column]; ok && x.Table == "" {
			return c.checkExpr(ae, in, nil, grouped)
		}
		return fmt.Errorf("engine: unknown column %s", x.SQL())
	case *ast.Param:
		if _, ok := c.params[x.Name]; !ok {
			return fmt.Errorf("engine: unbound parameter :%s", x.Name)
		}
	case *ast.AggExpr:
		if !grouped {
			return fmt.Errorf("engine: aggregate %s outside grouping context", x.SQL())
		}
		return nil
	case *ast.FuncCall:
		name := strings.ToLower(x.Name)
		if c.eng.IsAggUDF(name) {
			if !grouped {
				return fmt.Errorf("engine: aggregate UDF %s outside grouping context", x.Name)
			}
			return nil
		}
		switch name {
		case "extract_year", "extract_month", "extract_day":
			if len(x.Args) != 1 {
				return fmt.Errorf("engine: %s expects 1 argument", name)
			}
		case "substring":
			if len(x.Args) < 2 {
				return fmt.Errorf("engine: substring expects at least 2 arguments")
			}
		default:
			if _, ok := c.eng.scalars[name]; !ok {
				return fmt.Errorf("engine: unknown function %s", x.Name)
			}
		}
	case *ast.IntervalExpr:
		if x.Unit != "day" {
			return fmt.Errorf("engine: interval '%d' %s outside date arithmetic", x.N, x.Unit)
		}
	case *ast.BinaryExpr:
		if _, ok := x.Right.(*ast.IntervalExpr); ok && (x.Op == ast.OpAdd || x.Op == ast.OpSub) {
			return c.checkExpr(x.Left, in, aliases, grouped) // date ± interval
		}
	}
	var err error
	ast.VisitChildren(e, func(ch ast.Expr) {
		if err == nil {
			err = c.checkExpr(ch, in, aliases, grouped)
		}
	})
	return err
}
