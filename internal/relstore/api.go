package relstore

import "fmt"

// InsertRow inserts one row through the typed API, bypassing SQL parsing.
// This is the ingestion fast path: loaders that stream thousands of feed
// entries use it to avoid quoting values (and to insert timestamps, which
// have no literal syntax in the dialect).
func InsertRow(db *DB, tableName string, columns []string, values []Value) error {
	if len(columns) != len(values) {
		return fmt.Errorf("relstore: InsertRow: %d columns, %d values", len(columns), len(values))
	}
	return InsertRows(db, tableName, columns, [][]Value{values})
}

// InsertRows inserts many rows sharing one column layout under a single
// lock acquisition and table lookup — the batch half of the feed
// ingestion pipeline. Each column appends the batch to its vector and
// each index sorts the batch into one run (see index). Rows are
// inserted in slice order; on error the rows before the failing one
// remain inserted, like repeated InsertRow calls would leave them. A
// batch that would take the table past 2^31-1 rows is refused whole.
func InsertRows(db *DB, tableName string, columns []string, rows [][]Value) error {
	if len(rows) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relstore: no table %q", tableName)
	}
	colIdx := make([]int, len(columns))
	for i, col := range columns {
		ci, ok := t.colIdx[col]
		if !ok {
			return fmt.Errorf("relstore: table %s has no column %q", tableName, col)
		}
		colIdx[i] = ci
	}
	return t.insert(len(rows), func(i int, row []Value) error {
		values := rows[i]
		if len(values) != len(columns) {
			return fmt.Errorf("relstore: InsertRows: %d columns, %d values", len(columns), len(values))
		}
		for j, ci := range colIdx {
			row[ci] = values[j]
		}
		return nil
	})
}

// ScanTable streams every row of a table to fn in insertion order,
// stopping early if fn returns false. fn receives one row slice,
// refilled for every row: it must copy any row it keeps and must not
// write to it.
func ScanTable(db *DB, tableName string, fn func(row []Value) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relstore: no table %q", tableName)
	}
	row := make([]Value, len(t.cols))
	for r := range t.n {
		t.row(r, row)
		if !fn(row) {
			return nil
		}
	}
	return nil
}
