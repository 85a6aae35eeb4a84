package relstore

import (
	"compress/gzip"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// DB is an in-memory relational database. It is safe for concurrent use;
// statements take a coarse read or write lock depending on their class.
// Construct with Open (the zero value is not usable).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table
	// workers is the SELECT execution parallelism (join probes shard
	// across this many goroutines); <= 1 runs serially. Atomic so
	// SetParallelism can race with in-flight queries.
	workers atomic.Int32
	// plans is the shared LRU cache of compiled query plans, keyed on
	// normalized shape (see prepare.go).
	plans *planCache
	// schemaGen counts DDL generations; cached plans carry the
	// generation they were compiled against and are dropped on mismatch.
	schemaGen atomic.Uint64
}

// Open returns an empty database that runs queries serially.
func Open() *DB {
	return &DB{
		tables: make(map[string]*table),
		plans:  newPlanCache(defaultPlanCacheCapacity),
	}
}

// PlanCacheStats reports the shared plan cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats { return db.plans.stats() }

// invalidatePlans bumps the schema generation and flushes the plan
// cache. DDL statements call it under db.mu.Lock, so no compilation
// (which requires at least the read lock) can interleave.
func (db *DB) invalidatePlans() {
	db.schemaGen.Add(1)
	db.plans.flush()
}

// InvalidatePlans flushes the shared plan cache and bumps the schema
// generation, forcing every future execution — held Stmts included —
// to recompile. Exposed for corpus epoch swaps, where the server must
// not serve a plan compiled against a retired schema.
func (db *DB) InvalidatePlans() { db.invalidatePlans() }

// SetParallelism changes the query worker count, mirroring
// core.WithParallelism: n <= 0 selects GOMAXPROCS. Every worker count
// produces byte-identical results.
func (db *DB) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	db.workers.Store(int32(n))
}

// Parallelism reports the effective query worker count.
func (db *DB) Parallelism() int {
	if n := int(db.workers.Load()); n > 1 {
		return n
	}
	return 1
}

// table is the storage for one relation: one typed vector per column
// (see column), the primary key's sorted index and one sorted index per
// CREATE INDEX column (see index). Rows are appended by insert batches
// and never change.
type table struct {
	name    string
	cols    []ColumnDef
	colIdx  map[string]int
	n       int32 // rows
	vecs    []column
	pk      *index // nil when the table has no primary key
	indexes map[string]*index
}

// maxRows bounds a table: row ids are int32s.
const maxRows = 1<<31 - 1

func newTable(name string, cols []ColumnDef) (*table, error) {
	t := &table{
		name:    name,
		cols:    cols,
		colIdx:  make(map[string]int, len(cols)),
		vecs:    make([]column, len(cols)),
		indexes: make(map[string]*index),
	}
	for i, c := range cols {
		switch c.Kind {
		case KindInt, KindFloat, KindText, KindBool, KindTime:
		default:
			return nil, fmt.Errorf("relstore: table %s column %s has unknown kind %d", name, c.Name, int(c.Kind))
		}
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("relstore: table %s declares column %s twice", name, c.Name)
		}
		t.colIdx[c.Name] = i
		t.vecs[i] = newColumn(c.Kind)
		if c.PrimaryKey {
			if t.pk != nil {
				return nil, fmt.Errorf("relstore: table %s declares two primary keys", name)
			}
			t.pk = &index{col: i}
		}
	}
	return t, nil
}

// indexOn returns the sorted index that serves column ci: its CREATE
// INDEX index, else the primary key's, else nil.
func (t *table) indexOn(ci int) *index {
	if ix, ok := t.indexes[t.cols[ci].Name]; ok {
		return ix
	}
	if t.pk != nil && t.pk.col == ci {
		return t.pk
	}
	return nil
}

// insert appends rows rows, each written by fill into a scratch row of
// the table's width, in column order. On error the rows before the
// failing one stay inserted, and every index takes the appended rows
// as one batch.
func (t *table) insert(rows int, fill func(i int, row []Value) error) error {
	if int64(t.n)+int64(rows) > maxRows {
		return fmt.Errorf("relstore: table %s: %d more rows would pass %d", t.name, rows, maxRows)
	}
	first := t.n
	defer t.settle(first)
	row := make([]Value, len(t.cols))
	// seen holds the batch's primary keys: the primary key's index
	// takes the batch only once it ends.
	var seen map[Value]struct{}
	if t.pk != nil {
		seen = make(map[Value]struct{}, rows)
	}
	for i := 0; i < rows; i++ {
		clear(row)
		if err := fill(i, row); err != nil {
			return err
		}
		for ci := range row {
			v, err := coerce(row[ci], t.cols[ci].Kind)
			if err != nil {
				return fmt.Errorf("%w (column %s)", err, t.cols[ci].Name)
			}
			row[ci] = v
		}
		if t.pk != nil {
			v := row[t.pk.col]
			if v.IsNull() {
				return fmt.Errorf("relstore: table %s: NULL primary key", t.name)
			}
			k := v.mapKey()
			if _, dup := seen[k]; dup || t.pkHolds(v) {
				return fmt.Errorf("relstore: table %s: duplicate primary key %s", t.name, v)
			}
			seen[k] = struct{}{}
		}
		for ci, v := range row {
			t.vecs[ci].push(t.n, v)
		}
		t.n++
	}
	return nil
}

// pkHolds reports whether an inserted row's primary key equals v.
func (t *table) pkHolds(v Value) bool {
	c := &t.vecs[t.pk.col]
	if v.isNaN() {
		// NaN keys stay out of the sorted runs; they are equal for
		// uniqueness, as mapKey groups them.
		for i := range t.pk.runs {
			if len(t.pk.runs[i].nan) > 0 {
				return true
			}
		}
		return false
	}
	for i := range t.pk.runs {
		if len(t.pk.runs[i].find(c, v)) > 0 {
			return true
		}
	}
	return false
}

// settle ends an insert batch that appended rows [first, t.n): every
// index takes them as one run, and each TEXT column settles its
// encoding.
func (t *table) settle(first int32) {
	if t.pk != nil {
		t.pk.add(&t.vecs[t.pk.col], first, t.n)
	}
	for _, ix := range t.indexes {
		ix.add(&t.vecs[ix.col], first, t.n)
	}
	for ci := range t.vecs {
		t.vecs[ci].settle(int(t.n))
	}
}

// row writes row r's cells into dst, which has the table's width.
func (t *table) row(r int32, dst []Value) {
	for ci := range t.vecs {
		dst[ci] = t.vecs[ci].value(r)
	}
}

// Result is the output of a query: column headers and rows.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Exec runs a CREATE TABLE or CREATE INDEX statement. Rows arrive
// through InsertRow and InsertRows, and no statement changes or drops
// them.
func (db *DB) Exec(sql string) error {
	stmt, err := parse(sql)
	if err != nil {
		return err
	}
	switch s := stmt.(type) {
	case *createTableStmt:
		return db.createTable(s)
	case *createIndexStmt:
		return db.createIndex(s)
	default:
		return fmt.Errorf("relstore: use Query for SELECT")
	}
}

// Query runs a SELECT and returns its result set. `?` placeholders in
// the statement bind positionally to args (the typed-Value path, so
// caller-supplied text never needs quoting). The statement compiles
// through the shared plan cache: its text normalizes to a shape
// (literals canonicalized to placeholders) and the shape's parsed AST
// and plan are reused across calls; execution binds the literals plus
// args onto copy-on-write clones. A statement that is not a SELECT
// fails with an error wrapping ErrNotSelect.
func (db *DB) Query(sql string, args ...Value) (*Result, error) {
	shape, slots, err := normalizeSQL(sql)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, err := db.compiled(shape)
	if err != nil {
		return nil, err
	}
	if n := countUserSlots(slots); n != len(args) {
		return nil, fmt.Errorf("relstore: statement has %d placeholders, got %d arguments", n, len(args))
	}
	return db.execCompiled(c, mergeSlots(slots, args))
}

// QueryInt runs a single-value SELECT (for example a COUNT) and returns
// the cell as an int64. Only tests call it (relstore's and vulndb's).
func (db *DB) QueryInt(sql string, args ...Value) (int64, error) {
	res, err := db.Query(sql, args...)
	if err != nil {
		return 0, err
	}
	return resultInt(res)
}

// resultInt extracts the single int cell of a one-cell result.
func resultInt(res *Result) (int64, error) {
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("relstore: QueryInt got %dx%d result", len(res.Rows), len(res.Columns))
	}
	v := res.Rows[0][0]
	switch v.Kind() {
	case KindInt:
		return v.AsInt(), nil
	case KindFloat:
		return int64(v.AsFloat()), nil
	default:
		return 0, fmt.Errorf("relstore: QueryInt got %s value", v.Kind())
	}
}

func (db *DB) createTable(s *createTableStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[s.Table]; exists {
		return fmt.Errorf("relstore: table %q already exists", s.Table)
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: table %q has no columns", s.Table)
	}
	t, err := newTable(s.Table, s.Columns)
	if err != nil {
		return err
	}
	db.tables[s.Table] = t
	db.invalidatePlans()
	return nil
}

func (db *DB) createIndex(s *createIndexStmt) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[s.Table]
	if !ok {
		return fmt.Errorf("relstore: no table %q", s.Table)
	}
	if _, exists := t.indexes[s.Column]; exists {
		return nil // idempotent
	}
	if err := db.createIndexLocked(t, s.Column); err != nil {
		return err
	}
	db.invalidatePlans()
	return nil
}

// gobTable is the persisted form of a table.
type gobTable struct {
	Name    string
	Cols    []ColumnDef
	Rows    [][]gobValue
	Indexed []string
}

// gobValue flattens Value for encoding/gob (whose encoder needs exported
// fields).
type gobValue struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
	T    int64 // UnixNano; valid when Kind == KindTime
}

func toGob(v Value) gobValue {
	g := gobValue{Kind: v.kind, S: v.s}
	switch v.kind {
	case KindInt:
		g.I = v.AsInt()
	case KindFloat:
		g.F = v.AsFloat()
	case KindBool:
		g.B = v.AsBool()
	case KindTime:
		g.T = int64(v.n)
	}
	return g
}

func fromGob(g gobValue) Value {
	switch g.Kind {
	case KindInt:
		return Int(g.I)
	case KindFloat:
		return Float(g.F)
	case KindText:
		return Text(g.S)
	case KindBool:
		return Bool(g.B)
	case KindTime:
		return Value{kind: KindTime, n: uint64(g.T)}
	default:
		return Value{kind: g.Kind}
	}
}

// Save persists the database to a gzip-compressed gob file.
func (db *DB) Save(path string) (err error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("relstore: save: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("relstore: save close: %w", cerr)
		}
	}()
	gz := gzip.NewWriter(f)
	defer func() {
		if cerr := gz.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("relstore: save gzip close: %w", cerr)
		}
	}()
	enc := gob.NewEncoder(gz)
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	if err := enc.Encode(len(names)); err != nil {
		return fmt.Errorf("relstore: save: %w", err)
	}
	for _, name := range names {
		t := db.tables[name]
		gt := gobTable{Name: t.name, Cols: t.cols}
		gt.Rows = make([][]gobValue, t.n)
		cells := make([]gobValue, int(t.n)*len(t.cols))
		row := make([]Value, len(t.cols))
		for r := range t.n {
			t.row(r, row)
			grow := cells[int(r)*len(row) : int(r+1)*len(row)]
			for j, v := range row {
				grow[j] = toGob(v)
			}
			gt.Rows[r] = grow
		}
		for col := range t.indexes {
			gt.Indexed = append(gt.Indexed, col)
		}
		sort.Strings(gt.Indexed)
		if err := enc.Encode(gt); err != nil {
			return fmt.Errorf("relstore: save table %s: %w", name, err)
		}
	}
	return nil
}

// Load reads a database written by Save.
func Load(path string) (*DB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relstore: load: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("relstore: load: %w", err)
	}
	defer gz.Close()
	dec := gob.NewDecoder(gz)
	var n int
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("relstore: load: %w", err)
	}
	db := Open()
	for i := 0; i < n; i++ {
		var gt gobTable
		if err := dec.Decode(&gt); err != nil {
			return nil, fmt.Errorf("relstore: load table %d: %w", i, err)
		}
		if _, dup := db.tables[gt.Name]; dup {
			return nil, fmt.Errorf("relstore: load: table %s appears twice", gt.Name)
		}
		t, err := newTable(gt.Name, gt.Cols)
		if err != nil {
			return nil, fmt.Errorf("relstore: load: %w", err)
		}
		err = t.insert(len(gt.Rows), func(i int, row []Value) error {
			grow := gt.Rows[i]
			if len(grow) != len(row) {
				return fmt.Errorf("row width %d, want %d", len(grow), len(row))
			}
			for j, g := range grow {
				row[j] = fromGob(g)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("relstore: load table %s: %w", gt.Name, err)
		}
		db.tables[gt.Name] = t
		for _, col := range gt.Indexed {
			if err := db.createIndexLocked(t, col); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// createIndexLocked builds the sorted index of one column over the
// rows already stored; callers hold db.mu.Lock or own the database
// exclusively.
func (db *DB) createIndexLocked(t *table, col string) error {
	ci, ok := t.colIdx[col]
	if !ok {
		return fmt.Errorf("relstore: table %s has no column %q", t.name, col)
	}
	ix := &index{col: ci}
	ix.add(&t.vecs[ci], 0, t.n)
	t.indexes[col] = ix
	return nil
}
