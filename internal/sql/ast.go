package sql

import (
	"fmt"
	"strconv"
	"strings"

	"tpjoin/internal/tp"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	fmt.Stringer
}

// Select is a SELECT query:
//
//	SELECT [DISTINCT] <projections|*> FROM <table>
//	    [<tp-join> | <tp-setop>] [WHERE <conds>]
//	    [ORDER BY <keys>] [LIMIT n]
type Select struct {
	Distinct bool
	Star     bool
	Projs    []ColRef
	From     TableRef
	Join     *JoinClause
	SetOp    *SetOpClause
	Where    []Condition
	OrderBy  []OrderKey
	Limit    int // -1 when absent
}

// OrderKey is one ORDER BY key: a fact column or the pseudo-columns
// Tstart/Tend/P, ascending or descending.
type OrderKey struct {
	Col  ColRef
	Desc bool
}

func (o OrderKey) String() string {
	if o.Desc {
		return o.Col.String() + " DESC"
	}
	return o.Col.String()
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	if s.Star {
		b.WriteString("*")
	} else {
		for i, p := range s.Projs {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(s.From.String())
	if s.Join != nil {
		b.WriteString(" ")
		b.WriteString(s.Join.String())
	}
	if s.SetOp != nil {
		b.WriteString(" ")
		b.WriteString(s.SetOp.String())
	}
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		for i, c := range s.Where {
			if i > 0 {
				b.WriteString(" AND ")
			}
			b.WriteString(c.String())
		}
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k.String())
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// TableRef names a catalog relation with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name a column reference may use for this table.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// JoinClause is a TP join: TP [LEFT|RIGHT|FULL [OUTER]|ANTI] JOIN t ON ...
type JoinClause struct {
	Op    tp.Op
	Right TableRef
	On    []OnEq
}

func (j *JoinClause) String() string {
	var kw string
	switch j.Op {
	case tp.OpInner:
		kw = "TP JOIN"
	case tp.OpAnti:
		kw = "TP ANTI JOIN"
	case tp.OpLeft:
		kw = "TP LEFT JOIN"
	case tp.OpRight:
		kw = "TP RIGHT JOIN"
	case tp.OpFull:
		kw = "TP FULL JOIN"
	}
	parts := make([]string, len(j.On))
	for i, eq := range j.On {
		parts[i] = eq.String()
	}
	return fmt.Sprintf("%s %s ON %s", kw, j.Right, strings.Join(parts, " AND "))
}

// SetOpKind enumerates the TP set operations.
type SetOpKind uint8

// The TP set operations.
const (
	SetUnion SetOpKind = iota
	SetIntersect
	SetExcept
)

func (k SetOpKind) String() string {
	switch k {
	case SetUnion:
		return "UNION"
	case SetIntersect:
		return "INTERSECT"
	default:
		return "EXCEPT"
	}
}

// SetOpClause is a TP set operation with another relation:
// FROM r TP UNION s.
type SetOpClause struct {
	Kind  SetOpKind
	Right TableRef
}

func (s *SetOpClause) String() string {
	return fmt.Sprintf("TP %s %s", s.Kind, s.Right)
}

// OnEq is one equality of a θ condition: l = r.
type OnEq struct {
	L ColRef
	R ColRef
}

func (e OnEq) String() string { return e.L.String() + " = " + e.R.String() }

// ColRef is a possibly table-qualified column reference.
type ColRef struct {
	Table  string // "" when unqualified
	Column string
}

func (c ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// Condition is a WHERE conjunct: <col> <op> <literal>, or IS [NOT] NULL.
type Condition struct {
	Col    ColRef
	Op     string // "=", "<>", "<", "<=", ">", ">="; "" for IS [NOT] NULL
	Lit    Literal
	IsNull bool // IS NULL / IS NOT NULL
	Negate bool // IS NOT NULL
}

func (c Condition) String() string {
	if c.IsNull {
		if c.Negate {
			return c.Col.String() + " IS NOT NULL"
		}
		return c.Col.String() + " IS NULL"
	}
	return fmt.Sprintf("%s %s %s", c.Col, c.Op, c.Lit)
}

// Literal is a string or numeric constant, or — inside a PREPARE'd
// statement — a parameter placeholder to be bound at EXECUTE time.
type Literal struct {
	IsString bool
	Str      string
	Num      float64
	// Param is the 1-based parameter index of a placeholder (`?`
	// placeholders are numbered left to right, `$N` explicitly); 0 for an
	// ordinary constant. A placeholder literal has no value of its own.
	Param int
}

func (l Literal) String() string {
	if l.Param > 0 {
		// Canonical rendering normalizes ? and $N to one spelling, so the
		// plan-cache key is placeholder-style-independent.
		return fmt.Sprintf("$%d", l.Param)
	}
	if l.IsString {
		return "'" + strings.ReplaceAll(l.Str, "'", "''") + "'"
	}
	// Plain decimal, never exponent form: the lexer reads only digits and
	// '.', and this text is the plan-cache key and what \prepared lists.
	return strconv.FormatFloat(l.Num, 'f', -1, 64)
}

// Explain wraps a SELECT — or an EXECUTE of a prepared statement — for
// plan display. Analyze additionally executes the query and reports
// per-operator row counts. Exactly one of Query and Exec is set.
type Explain struct {
	Query   *Select
	Exec    *Execute
	Analyze bool
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	var inner string
	if e.Exec != nil {
		inner = e.Exec.String()
	} else {
		inner = e.Query.String()
	}
	if e.Analyze {
		return "EXPLAIN ANALYZE " + inner
	}
	return "EXPLAIN " + inner
}

// CreateTableAs materializes a query result under a new catalog name:
// CREATE TABLE name AS SELECT ...
type CreateTableAs struct {
	Name  string
	Query *Select
}

func (*CreateTableAs) stmt() {}

func (c *CreateTableAs) String() string {
	return "CREATE TABLE " + c.Name + " AS " + c.Query.String()
}

// Prepare names a parsed SELECT for repeated execution:
// PREPARE name AS SELECT ... — with `?` or `$N` placeholders in WHERE
// literal positions, bound per EXECUTE. NumParams is the number of
// parameters the statement wants (the highest placeholder index).
type Prepare struct {
	Name      string
	Query     *Select
	NumParams int
}

func (*Prepare) stmt() {}

func (p *Prepare) String() string {
	return "PREPARE " + p.Name + " AS " + p.Query.String()
}

// Execute runs a prepared statement with the given parameter values:
// EXECUTE name [(param, ...)].
type Execute struct {
	Name   string
	Params []Literal
}

func (*Execute) stmt() {}

func (e *Execute) String() string {
	if len(e.Params) == 0 {
		return "EXECUTE " + e.Name
	}
	parts := make([]string, len(e.Params))
	for i, p := range e.Params {
		parts[i] = p.String()
	}
	return "EXECUTE " + e.Name + " (" + strings.Join(parts, ", ") + ")"
}

// Deallocate discards a prepared statement: DEALLOCATE name.
type Deallocate struct {
	Name string
}

func (*Deallocate) stmt() {}

func (d *Deallocate) String() string { return "DEALLOCATE " + d.Name }

// Set assigns a session variable: SET name = value.
type Set struct {
	Name  string
	Value string
}

func (*Set) stmt() {}

func (s *Set) String() string { return fmt.Sprintf("SET %s = '%s'", s.Name, s.Value) }
