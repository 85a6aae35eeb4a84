package relstore

import "fmt"

// The reference SELECT executor: the oracle the planner's identity
// tests and FuzzSelectMatchesOracle compare against. It scans every
// table whole, hash-joins only a bare `L.col = R.col` ON clause (nested
// loop otherwise), and applies the whole WHERE after all joins, so it
// never reads an index. It shares validation and the projection and
// grouping tail (finishSelect) with the planner, which must answer every
// query byte-identically.

// queryNaive parses, binds and runs a SELECT through the oracle on
// every call, never touching the plan cache.
func (db *DB) queryNaive(sql string, args ...Value) (*Result, error) {
	sel, err := ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	if sel, err = bindSelect(sel, args); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.execSelectNaive(sel)
}

// execSelectNaive runs a bound SELECT through the oracle. Callers hold
// db.mu.RLock.
func (db *DB) execSelectNaive(s *SelectStmt) (*Result, error) {
	base, ok := db.tables[s.From.Table]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", s.From.Table)
	}
	work := &joinedRows{
		refs:    []TableRef{s.From},
		schemas: [][]ColumnDef{base.cols},
	}
	for _, row := range base.rows {
		work.combos = append(work.combos, [][]Value{row})
	}

	for _, join := range s.Joins {
		t, ok := db.tables[join.Table.Table]
		if !ok {
			return nil, fmt.Errorf("relstore: no table %q", join.Table.Table)
		}
		onEnv := newRowEnv(append(append([]TableRef(nil), work.refs...), join.Table),
			append(append([][]ColumnDef(nil), work.schemas...), t.cols))
		if err := validateFilter(join.On, onEnv, "ON"); err != nil {
			return nil, err
		}
		next, err := db.execJoin(work, join, t)
		if err != nil {
			return nil, err
		}
		work = next
	}

	if err := validateSelect(s, newRowEnv(work.refs, work.schemas)); err != nil {
		return nil, err
	}

	env := newRowEnv(work.refs, work.schemas)
	var filtered [][][]Value
	if s.Where != nil {
		for _, combo := range work.combos {
			env.rows = combo
			v, err := eval(s.Where, env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				filtered = append(filtered, combo)
			}
		}
	} else {
		filtered = work.combos
	}
	return db.finishSelect(s, work, filtered)
}

// execJoin extends the working set with one inner join, using a hash join
// when the ON clause is a simple equality between one existing column and
// one column of the new table.
func (db *DB) execJoin(work *joinedRows, join JoinClause, t *table) (*joinedRows, error) {
	next := &joinedRows{
		refs:    append(append([]TableRef(nil), work.refs...), join.Table),
		schemas: append(append([][]ColumnDef(nil), work.schemas...), t.cols),
	}
	env := newRowEnv(next.refs, next.schemas)

	leftExpr, rightExpr, hashable := equiJoinSides(join.On, work, join.Table, t)
	if hashable {
		// Build side: hash the new table on its join column.
		build := make(map[Value][]int, len(t.rows))
		rightEnv := newRowEnv([]TableRef{join.Table}, [][]ColumnDef{t.cols})
		for ri, row := range t.rows {
			rightEnv.set(0, row)
			v, err := eval(rightExpr, rightEnv)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			build[v.mapKey()] = append(build[v.mapKey()], ri)
		}
		leftEnv := newRowEnv(work.refs, work.schemas)
		for _, combo := range work.combos {
			leftEnv.rows = combo
			v, err := eval(leftExpr, leftEnv)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			for _, ri := range build[v.mapKey()] {
				extended := append(append([][]Value(nil), combo...), t.rows[ri])
				next.combos = append(next.combos, extended)
			}
		}
		return next, nil
	}

	// General nested loop with the full ON predicate.
	for _, combo := range work.combos {
		for _, row := range t.rows {
			extended := append(append([][]Value(nil), combo...), row)
			env.rows = extended
			v, err := eval(join.On, env)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				next.combos = append(next.combos, extended)
			}
		}
	}
	return next, nil
}

// equiJoinSides decomposes an ON clause of the form L.col = R.col where
// exactly one side references the table being joined in. It returns the
// expression bound to the existing working set and the one bound to the
// new table.
func equiJoinSides(on Expr, work *joinedRows, newRef TableRef, t *table) (left, right Expr, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return nil, nil, false
	}
	lc, lok := be.Left.(*ColumnExpr)
	rc, rok := be.Right.(*ColumnExpr)
	if !lok || !rok {
		return nil, nil, false
	}
	belongsToNew := func(c *ColumnExpr) bool {
		if c.Table != "" {
			// A qualifier resolves to the first table of that name, as
			// in eval: claim the column for the new table only when no
			// existing table goes by the same name.
			for _, ref := range work.refs {
				if ref.Name() == c.Table {
					return false
				}
			}
			return c.Table == newRef.Name()
		}
		_, inNew := t.colIdx[c.Column]
		if !inNew {
			return false
		}
		// Unqualified: only claim it for the new table when no existing
		// table also has the column.
		for _, schema := range work.schemas {
			for _, col := range schema {
				if col.Name == c.Column {
					return false
				}
			}
		}
		return true
	}
	switch {
	case belongsToNew(rc) && !belongsToNew(lc):
		return lc, rc, true
	case belongsToNew(lc) && !belongsToNew(rc):
		return rc, lc, true
	default:
		return nil, nil, false
	}
}
