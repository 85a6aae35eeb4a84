package relstore

import (
	"slices"
	"sync/atomic"
)

// This file defines the statement and expression trees produced by the
// parser and consumed by the executor.

// statement is any parsed SQL statement: one of the two DDL forms Exec
// runs, or a SELECT.
type statement interface{ stmt() }

// createTableStmt is CREATE TABLE name (col TYPE [PRIMARY KEY], ...).
type createTableStmt struct {
	Table   string
	Columns []ColumnDef
}

// ColumnDef is one column declaration.
type ColumnDef struct {
	Name       string
	Kind       Kind
	PrimaryKey bool
}

// createIndexStmt is CREATE INDEX ON table (col).
type createIndexStmt struct {
	Table  string
	Column string
}

// SelectStmt is the full SELECT form of the dialect.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr // nil when absent
	GroupBy  []Expr
	Having   Expr // nil when absent
	OrderBy  []OrderKey
	Limit    int // -1 when absent
}

// SelectItem is one output column: either * (Star), or an expression with
// an optional alias.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef names a table with an optional alias.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the effective name the query refers to the table by.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// JoinClause is an inner join with its ON condition.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderKey is one ORDER BY expression with direction.
type OrderKey struct {
	Expr Expr
	Desc bool
}

func (*createTableStmt) stmt() {}
func (*createIndexStmt) stmt() {}
func (*SelectStmt) stmt()      {}

// Expr is any expression node.
type Expr interface{ expr() }

// LiteralExpr is a constant value.
type LiteralExpr struct {
	Value Value
}

// ColumnExpr references a column, optionally qualified ("alias.col").
type ColumnExpr struct {
	Table  string // "" when unqualified
	Column string

	// at is the column's position, recorded once when validation
	// resolves the reference, so evaluation never looks a name up.
	at colPos
}

// colPos is a resolved column reference: the table's position in the
// FROM/JOIN list and the column's position in that table.
type colPos struct {
	table, col int32
	ok         bool
}

// BinaryExpr applies an infix operator: comparison, AND, OR.
type BinaryExpr struct {
	Op          string // "=", "<>", "<", "<=", ">", ">=", "AND", "OR"
	Left, Right Expr
}

// NotExpr is logical negation.
type NotExpr struct {
	Inner Expr
}

// InExpr is "expr [NOT] IN (literal, ...)".
type InExpr struct {
	Target Expr
	List   []Expr
	Negate bool
}

// LikeExpr is "expr [NOT] LIKE 'pattern'".
type LikeExpr struct {
	Target  Expr
	Pattern string
	Negate  bool

	// prog caches the compiled wildcard program so each query compiles
	// the pattern once, not once per scanned row.
	prog atomic.Pointer[likeProg]
}

// program returns the compiled pattern, compiling on first use. A lost
// race stores an identical program, so the cache is safe without locks.
func (x *LikeExpr) program() *likeProg {
	if p := x.prog.Load(); p != nil {
		return p
	}
	p := compileLike(x.Pattern)
	x.prog.Store(p)
	return p
}

// PlaceholderExpr is a positional `?` parameter, bound to one of the
// Value arguments of Query or Stmt.Query before execution. Index is the
// 0-based position of the `?` in the statement.
type PlaceholderExpr struct {
	Index int
}

// CallExpr is an aggregate call: COUNT/SUM/AVG/MIN/MAX. Star marks
// COUNT(*); Distinct marks COUNT(DISTINCT x).
type CallExpr struct {
	Func     string
	Star     bool
	Distinct bool
	Arg      Expr // nil for COUNT(*)
}

func (*LiteralExpr) expr()     {}
func (*ColumnExpr) expr()      {}
func (*BinaryExpr) expr()      {}
func (*NotExpr) expr()         {}
func (*InExpr) expr()          {}
func (*LikeExpr) expr()        {}
func (*CallExpr) expr()        {}
func (*PlaceholderExpr) expr() {}

// hasAggregate reports whether the expression contains an aggregate call,
// which decides between plain projection and grouped execution.
func hasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *CallExpr:
		return true
	case *BinaryExpr:
		return hasAggregate(x.Left) || hasAggregate(x.Right)
	case *NotExpr:
		return hasAggregate(x.Inner)
	case *InExpr:
		return hasAggregate(x.Target) || slices.ContainsFunc(x.List, hasAggregate)
	case *LikeExpr:
		return hasAggregate(x.Target)
	default:
		return false
	}
}

// HasAggregates reports whether any select item or the HAVING clause
// contains an aggregate call — whether the statement executes grouped.
// A scatter-gather front-end uses this (with GroupBy/Distinct/OrderBy/
// Limit) to refuse statements whose result cannot be reproduced by
// concatenating per-shard row sets.
func (sel *SelectStmt) HasAggregates() bool {
	for _, it := range sel.Items {
		if it.Expr != nil && hasAggregate(it.Expr) {
			return true
		}
	}
	return sel.Having != nil && hasAggregate(sel.Having)
}
