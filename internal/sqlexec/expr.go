// Package sqlexec plans and executes parsed SQL statements against the
// reldb storage engine. It implements the query side of the PerfDMF
// database substrate: expression evaluation with SQL three-valued logic,
// index selection for equality and range predicates, index and hash
// joins, grouping with the aggregate set PerfDMF's analysis layer relies
// on (COUNT/SUM/AVG/MIN/MAX/STDDEV), ORDER BY, DISTINCT and LIMIT/OFFSET.
package sqlexec

import (
	"fmt"
	"math"
	"strings"

	"perfdmf/internal/reldb"
	"perfdmf/internal/sqlparse"
)

// env supplies column values and parameters to the expression evaluator.
type env struct {
	cols   *colmap
	row    reldb.Row // concatenated row covering all bindings
	params []reldb.Value
	// agg, when non-nil, resolves aggregate FuncCall nodes to precomputed
	// per-group values (keyed by AST node identity).
	agg map[*sqlparse.FuncCall]reldb.Value
	// tx enables uncorrelated subquery evaluation; sub caches each
	// subquery's result for the duration of the statement.
	tx  *reldb.Tx
	sub map[*sqlparse.Subquery]*ResultSet
	// serial marks an env owned by a parallel worker: subqueries it spawns
	// must not fan out again, or worker counts would multiply.
	serial bool
}

// subResult runs (or returns the cached result of) an uncorrelated
// subquery.
func (ev *env) subResult(sq *sqlparse.Subquery) (*ResultSet, error) {
	if ev.tx == nil {
		return nil, fmt.Errorf("sqlexec: subquery not allowed in this context")
	}
	if rs, ok := ev.sub[sq]; ok {
		return rs, nil
	}
	var opts Options
	if ev.serial {
		opts.Workers = 1
	}
	rs, err := QueryOpts(ev.tx, sq.Select, ev.params, nil, opts)
	if err != nil {
		return nil, err
	}
	if ev.sub == nil {
		ev.sub = make(map[*sqlparse.Subquery]*ResultSet)
	}
	ev.sub[sq] = rs
	return rs, nil
}

// colmap resolves column references against one or more table bindings.
type colmap struct {
	// qualified maps "alias.column" (lower-cased) to a position.
	qualified map[string]int
	// unqualified maps "column" to a position, or -2 when ambiguous.
	unqualified map[string]int
	width       int
	// types holds each position's declared column type; TNull marks a
	// column without one (derived-table and catalog bindings).
	types []reldb.Type
}

func newColmap() *colmap {
	return &colmap{qualified: make(map[string]int), unqualified: make(map[string]int)}
}

// bind adds a table's columns at the current offset under the given alias
// (and the table name itself).
func (m *colmap) bind(alias, table string, schema *reldb.Schema) {
	for i, c := range schema.Columns {
		pos := m.width + i
		lower := strings.ToLower(c.Name)
		m.qualified[strings.ToLower(alias)+"."+lower] = pos
		if !strings.EqualFold(alias, table) {
			m.qualified[strings.ToLower(table)+"."+lower] = pos
		}
		if old, ok := m.unqualified[lower]; ok && old != pos {
			m.unqualified[lower] = -2
		} else {
			m.unqualified[lower] = pos
		}
	}
	m.width += len(schema.Columns)
	for _, c := range schema.Columns {
		m.types = append(m.types, c.Type)
	}
}

// bindNames binds a derived table's result columns under alias.
func (m *colmap) bindNames(alias string, names []string) {
	for i, name := range names {
		pos := m.width + i
		lower := strings.ToLower(name)
		m.qualified[strings.ToLower(alias)+"."+lower] = pos
		if old, ok := m.unqualified[lower]; ok && old != pos {
			m.unqualified[lower] = -2
		} else {
			m.unqualified[lower] = pos
		}
	}
	m.width += len(names)
	m.types = append(m.types, make([]reldb.Type, len(names))...)
}

// resolve returns the position of a column reference.
func (m *colmap) resolve(c *sqlparse.ColRef) (int, error) {
	if c.Table != "" {
		pos, ok := m.qualified[strings.ToLower(c.Table)+"."+strings.ToLower(c.Name)]
		if !ok {
			return 0, fmt.Errorf("sqlexec: unknown column %s.%s", c.Table, c.Name)
		}
		return pos, nil
	}
	pos, ok := m.unqualified[strings.ToLower(c.Name)]
	if !ok {
		return 0, fmt.Errorf("sqlexec: unknown column %s", c.Name)
	}
	if pos == -2 {
		return 0, fmt.Errorf("sqlexec: ambiguous column %s", c.Name)
	}
	return pos, nil
}

// eval evaluates an expression. SQL NULL propagates through operators
// (three-valued logic); WHERE/HAVING treat a NULL result as false.
func eval(e sqlparse.Expr, ev *env) (reldb.Value, error) {
	switch e := e.(type) {
	case *sqlparse.Literal:
		return e.Value, nil
	case *sqlparse.Param:
		if ev.params == nil || e.Index >= len(ev.params) {
			return reldb.Null, fmt.Errorf("sqlexec: missing parameter %d", e.Index+1)
		}
		return ev.params[e.Index], nil
	case *sqlparse.ColRef:
		pos, err := ev.cols.resolve(e)
		if err != nil {
			return reldb.Null, err
		}
		if pos >= len(ev.row) {
			return reldb.Null, nil // null-extended left-join row
		}
		return ev.row[pos], nil
	case *sqlparse.Unary:
		x, err := eval(e.X, ev)
		if err != nil {
			return reldb.Null, err
		}
		if x.IsNull() {
			return reldb.Null, nil
		}
		if e.Neg {
			if x.T == reldb.TFloat {
				return reldb.Float(-x.F), nil
			}
			return reldb.Int(-x.AsInt()), nil
		}
		return reldb.Bool(!x.AsBool()), nil
	case *sqlparse.Binary:
		return evalBinary(e, ev)
	case *sqlparse.IsNull:
		x, err := eval(e.X, ev)
		if err != nil {
			return reldb.Null, err
		}
		return reldb.Bool(x.IsNull() != e.Neg), nil
	case *sqlparse.InList:
		return evalIn(e, ev)
	case *sqlparse.Between:
		x, err := eval(e.X, ev)
		if err != nil {
			return reldb.Null, err
		}
		lo, err := eval(e.Lo, ev)
		if err != nil {
			return reldb.Null, err
		}
		hi, err := eval(e.Hi, ev)
		if err != nil {
			return reldb.Null, err
		}
		if x.IsNull() || lo.IsNull() || hi.IsNull() {
			return reldb.Null, nil
		}
		in := reldb.Compare(x, lo) >= 0 && reldb.Compare(x, hi) <= 0
		return reldb.Bool(in != e.Neg), nil
	case *sqlparse.FuncCall:
		if ev.agg != nil {
			if v, ok := ev.agg[e]; ok {
				return v, nil
			}
		}
		return evalScalarFunc(e, ev)
	case *sqlparse.Subquery:
		rs, err := ev.subResult(e)
		if err != nil {
			return reldb.Null, err
		}
		if len(rs.Cols) != 1 {
			return reldb.Null, fmt.Errorf("sqlexec: scalar subquery must return one column, got %d", len(rs.Cols))
		}
		switch len(rs.Rows) {
		case 0:
			return reldb.Null, nil
		case 1:
			return rs.Rows[0][0], nil
		}
		return reldb.Null, fmt.Errorf("sqlexec: scalar subquery returned %d rows", len(rs.Rows))
	}
	return reldb.Null, fmt.Errorf("sqlexec: cannot evaluate %T", e)
}

func evalBinary(e *sqlparse.Binary, ev *env) (reldb.Value, error) {
	// AND/OR implement three-valued logic with short circuit.
	if e.Op == sqlparse.OpAnd || e.Op == sqlparse.OpOr {
		l, err := eval(e.L, ev)
		if err != nil {
			return reldb.Null, err
		}
		if e.Op == sqlparse.OpAnd && !l.IsNull() && !l.AsBool() {
			return reldb.Bool(false), nil
		}
		if e.Op == sqlparse.OpOr && !l.IsNull() && l.AsBool() {
			return reldb.Bool(true), nil
		}
		r, err := eval(e.R, ev)
		if err != nil {
			return reldb.Null, err
		}
		switch {
		case e.Op == sqlparse.OpAnd:
			if !r.IsNull() && !r.AsBool() {
				return reldb.Bool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return reldb.Null, nil
			}
			return reldb.Bool(true), nil
		default: // OR
			if !r.IsNull() && r.AsBool() {
				return reldb.Bool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return reldb.Null, nil
			}
			return reldb.Bool(false), nil
		}
	}

	l, err := eval(e.L, ev)
	if err != nil {
		return reldb.Null, err
	}
	r, err := eval(e.R, ev)
	if err != nil {
		return reldb.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return reldb.Null, nil
	}
	switch e.Op {
	case sqlparse.OpEq:
		return reldb.Bool(reldb.Compare(l, r) == 0), nil
	case sqlparse.OpNe:
		return reldb.Bool(reldb.Compare(l, r) != 0), nil
	case sqlparse.OpLt:
		return reldb.Bool(reldb.Compare(l, r) < 0), nil
	case sqlparse.OpLe:
		return reldb.Bool(reldb.Compare(l, r) <= 0), nil
	case sqlparse.OpGt:
		return reldb.Bool(reldb.Compare(l, r) > 0), nil
	case sqlparse.OpGe:
		return reldb.Bool(reldb.Compare(l, r) >= 0), nil
	case sqlparse.OpLike:
		return reldb.Bool(likeMatch(r.AsString(), l.AsString())), nil
	case sqlparse.OpConcat:
		return reldb.Str(l.AsString() + r.AsString()), nil
	case sqlparse.OpAdd, sqlparse.OpSub, sqlparse.OpMul:
		if l.T == reldb.TFloat || r.T == reldb.TFloat {
			a, b := l.AsFloat(), r.AsFloat()
			switch e.Op {
			case sqlparse.OpAdd:
				return reldb.Float(a + b), nil
			case sqlparse.OpSub:
				return reldb.Float(a - b), nil
			default:
				return reldb.Float(a * b), nil
			}
		}
		a, b := l.AsInt(), r.AsInt()
		switch e.Op {
		case sqlparse.OpAdd:
			return reldb.Int(a + b), nil
		case sqlparse.OpSub:
			return reldb.Int(a - b), nil
		default:
			return reldb.Int(a * b), nil
		}
	case sqlparse.OpDiv:
		// Division is always floating point: PerfDMF's derived metrics
		// (ratios, speedups, FLOP rates) must not truncate.
		b := r.AsFloat()
		if b == 0 {
			return reldb.Null, nil
		}
		return reldb.Float(l.AsFloat() / b), nil
	case sqlparse.OpMod:
		b := r.AsInt()
		if b == 0 {
			return reldb.Null, nil
		}
		return reldb.Int(l.AsInt() % b), nil
	}
	return reldb.Null, fmt.Errorf("sqlexec: bad binary op %d", e.Op)
}

func evalIn(e *sqlparse.InList, ev *env) (reldb.Value, error) {
	x, err := eval(e.X, ev)
	if err != nil {
		return reldb.Null, err
	}
	if x.IsNull() {
		return reldb.Null, nil
	}
	if e.Sub != nil {
		rs, err := ev.subResult(e.Sub)
		if err != nil {
			return reldb.Null, err
		}
		if len(rs.Cols) != 1 {
			return reldb.Null, fmt.Errorf("sqlexec: IN subquery must return one column, got %d", len(rs.Cols))
		}
		sawNull := false
		for _, row := range rs.Rows {
			if row[0].IsNull() {
				sawNull = true
				continue
			}
			if reldb.Compare(x, row[0]) == 0 {
				return reldb.Bool(!e.Neg), nil
			}
		}
		if sawNull {
			return reldb.Null, nil
		}
		return reldb.Bool(e.Neg), nil
	}
	sawNull := false
	for _, item := range e.List {
		v, err := eval(item, ev)
		if err != nil {
			return reldb.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if reldb.Compare(x, v) == 0 {
			return reldb.Bool(!e.Neg), nil
		}
	}
	if sawNull {
		return reldb.Null, nil
	}
	return reldb.Bool(e.Neg), nil
}

// evalScalarFunc evaluates the supported scalar functions.
func evalScalarFunc(e *sqlparse.FuncCall, ev *env) (reldb.Value, error) {
	args := make([]reldb.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := eval(a, ev)
		if err != nil {
			return reldb.Null, err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlexec: %s expects %d argument(s), got %d", e.Name, n, len(args))
		}
		return nil
	}
	switch e.Name {
	case "ABS":
		if err := need(1); err != nil {
			return reldb.Null, err
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		if args[0].T == reldb.TFloat {
			return reldb.Float(math.Abs(args[0].F)), nil
		}
		i := args[0].AsInt()
		if i < 0 {
			i = -i
		}
		return reldb.Int(i), nil
	case "SQRT":
		if err := need(1); err != nil {
			return reldb.Null, err
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		return reldb.Float(math.Sqrt(args[0].AsFloat())), nil
	case "ROUND":
		if len(args) < 1 || len(args) > 2 {
			return reldb.Null, fmt.Errorf("sqlexec: ROUND expects 1 or 2 arguments")
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		digits := 0
		if len(args) == 2 {
			digits = int(args[1].AsInt())
		}
		scale := math.Pow(10, float64(digits))
		return reldb.Float(math.Round(args[0].AsFloat()*scale) / scale), nil
	case "UPPER":
		if err := need(1); err != nil {
			return reldb.Null, err
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		return reldb.Str(strings.ToUpper(args[0].AsString())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return reldb.Null, err
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		return reldb.Str(strings.ToLower(args[0].AsString())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return reldb.Null, err
		}
		if args[0].IsNull() {
			return reldb.Null, nil
		}
		return reldb.Int(int64(len(args[0].AsString()))), nil
	case "COALESCE", "IFNULL":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return reldb.Null, nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return reldb.Null, nil
			}
			b.WriteString(a.AsString())
		}
		return reldb.Str(b.String()), nil
	case "COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV":
		return reldb.Null, fmt.Errorf("sqlexec: aggregate %s not allowed here", e.Name)
	}
	return reldb.Null, fmt.Errorf("sqlexec: unknown function %s", e.Name)
}

// likeMatch implements SQL LIKE: % matches any run, _ matches one byte.
func likeMatch(pattern, s string) bool {
	// Iterative two-pointer match with backtracking on the last %.
	p, i := 0, 0
	star, mark := -1, 0
	for i < len(s) {
		switch {
		case p < len(pattern) && (pattern[p] == '_' || pattern[p] == s[i]):
			p++
			i++
		case p < len(pattern) && pattern[p] == '%':
			star = p
			mark = i
			p++
		case star >= 0:
			p = star + 1
			mark++
			i = mark
		default:
			return false
		}
	}
	for p < len(pattern) && pattern[p] == '%' {
		p++
	}
	return p == len(pattern)
}

// truthy reports whether a WHERE/HAVING/ON result admits the row.
func truthy(v reldb.Value) bool { return !v.IsNull() && v.AsBool() }
