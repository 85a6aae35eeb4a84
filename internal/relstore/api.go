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
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relstore: no table %q", tableName)
	}
	row := make([]Value, len(t.cols))
	for i, col := range columns {
		ci, ok := t.colIdx[col]
		if !ok {
			return fmt.Errorf("relstore: table %s has no column %q", tableName, col)
		}
		row[ci] = values[i]
	}
	return t.insert(row)
}

// InsertRows inserts many rows sharing one column layout under a single
// lock acquisition and table lookup — the batch half of the feed
// ingestion pipeline. The rows are cut from one backing array. Rows are
// inserted in slice order; on error the rows before the failing one
// remain inserted, like repeated InsertRow calls would leave them.
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
	w := len(t.cols)
	cells := make([]Value, len(rows)*w)
	for i, values := range rows {
		if len(values) != len(columns) {
			return fmt.Errorf("relstore: InsertRows: %d columns, %d values", len(columns), len(values))
		}
		row := cells[i*w : (i+1)*w : (i+1)*w]
		for j, ci := range colIdx {
			row[ci] = values[j]
		}
		if err := t.insert(row); err != nil {
			return err
		}
	}
	return nil
}

// ScanTable streams every row of a table to fn in insertion order,
// stopping early if fn returns false. The row slice is shared; fn must
// not retain or mutate it.
func ScanTable(db *DB, tableName string, fn func(row []Value) bool) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tableName]
	if !ok {
		return fmt.Errorf("relstore: no table %q", tableName)
	}
	for _, row := range t.rows {
		if !fn(row) {
			return nil
		}
	}
	return nil
}
