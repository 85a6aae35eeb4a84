package relstore

import "fmt"

// Parameterized SELECTs: `?` placeholders bind to the typed Value
// arguments of Query and Stmt.Query. Binding rewrites the statement
// copy-on-write — subtrees without placeholders are shared, so one
// parsed statement can execute concurrently with different arguments —
// and callers never interpolate (or escape) text into SQL.

// bindSelect returns s with every placeholder replaced by its argument.
// The argument count must match the placeholder count exactly; a
// statement without placeholders and no arguments is returned
// unchanged.
func bindSelect(s *SelectStmt, args []Value) (*SelectStmt, error) {
	n := countSelectPlaceholders(s)
	if n != len(args) {
		return nil, fmt.Errorf("relstore: statement has %d placeholders, got %d arguments", n, len(args))
	}
	if n == 0 {
		return s, nil
	}
	c := *s
	c.Items = append([]SelectItem(nil), s.Items...)
	for i := range c.Items {
		if !c.Items[i].Star {
			c.Items[i].Expr = bindExpr(c.Items[i].Expr, args)
		}
	}
	c.Joins = append([]JoinClause(nil), s.Joins...)
	for i := range c.Joins {
		c.Joins[i].On = bindExpr(c.Joins[i].On, args)
	}
	if s.Where != nil {
		c.Where = bindExpr(s.Where, args)
	}
	c.GroupBy = append([]Expr(nil), s.GroupBy...)
	for i := range c.GroupBy {
		c.GroupBy[i] = bindExpr(c.GroupBy[i], args)
	}
	if s.Having != nil {
		c.Having = bindExpr(s.Having, args)
	}
	c.OrderBy = append([]OrderKey(nil), s.OrderBy...)
	for i := range c.OrderBy {
		c.OrderBy[i].Expr = bindExpr(c.OrderBy[i].Expr, args)
	}
	return &c, nil
}

// bindExpr substitutes placeholders in one expression tree. Subtrees
// without placeholders are returned as-is (pointer-equal), so binding a
// shared pre-parsed statement never mutates it.
func bindExpr(e Expr, args []Value) Expr {
	switch x := e.(type) {
	case *PlaceholderExpr:
		return &LiteralExpr{Value: args[x.Index]}
	case *BinaryExpr:
		l, r := bindExpr(x.Left, args), bindExpr(x.Right, args)
		if l == x.Left && r == x.Right {
			return e
		}
		return &BinaryExpr{Op: x.Op, Left: l, Right: r}
	case *NotExpr:
		if inner := bindExpr(x.Inner, args); inner != x.Inner {
			return &NotExpr{Inner: inner}
		}
		return e
	case *InExpr:
		target := bindExpr(x.Target, args)
		list := x.List
		for i, item := range x.List {
			if b := bindExpr(item, args); b != item {
				if &list[0] == &x.List[0] {
					list = append([]Expr(nil), x.List...)
				}
				list[i] = b
			}
		}
		if target == x.Target && len(list) > 0 && &list[0] == &x.List[0] {
			return e
		}
		return &InExpr{Target: target, List: list, Negate: x.Negate}
	case *LikeExpr:
		if target := bindExpr(x.Target, args); target != x.Target {
			ne := &LikeExpr{Target: target, Pattern: x.Pattern, Negate: x.Negate}
			// Share the compiled wildcard program: every bound copy of a
			// prepared statement matches through one compilation.
			ne.prog.Store(x.program())
			return ne
		}
		return e
	case *CallExpr:
		if x.Arg == nil {
			return e
		}
		if arg := bindExpr(x.Arg, args); arg != x.Arg {
			return &CallExpr{Func: x.Func, Star: x.Star, Distinct: x.Distinct, Arg: arg}
		}
		return e
	default:
		return e
	}
}

// countSelectPlaceholders counts the placeholder nodes of a SELECT.
func countSelectPlaceholders(s *SelectStmt) int {
	n := 0
	for _, item := range s.Items {
		if !item.Star {
			n += countExprPlaceholders(item.Expr)
		}
	}
	for _, j := range s.Joins {
		n += countExprPlaceholders(j.On)
	}
	n += countExprPlaceholders(s.Where)
	for _, g := range s.GroupBy {
		n += countExprPlaceholders(g)
	}
	n += countExprPlaceholders(s.Having)
	for _, o := range s.OrderBy {
		n += countExprPlaceholders(o.Expr)
	}
	return n
}

func countExprPlaceholders(e Expr) int {
	if e == nil {
		return 0
	}
	switch x := e.(type) {
	case *PlaceholderExpr:
		return 1
	case *BinaryExpr:
		return countExprPlaceholders(x.Left) + countExprPlaceholders(x.Right)
	case *NotExpr:
		return countExprPlaceholders(x.Inner)
	case *InExpr:
		n := countExprPlaceholders(x.Target)
		for _, item := range x.List {
			n += countExprPlaceholders(item)
		}
		return n
	case *LikeExpr:
		return countExprPlaceholders(x.Target)
	case *CallExpr:
		return countExprPlaceholders(x.Arg)
	default:
		return 0
	}
}
