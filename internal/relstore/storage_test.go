package relstore

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// TestValueIs32Bytes: a cell is the kind, one 8-byte payload and a
// string header.
func TestValueIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 32 {
		t.Fatalf("Value is %d bytes, want 32", got)
	}
}

// saveDigest saves db and returns the SHA-256 of the gunzipped stream.
func saveDigest(tb testing.TB, db *DB) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "db.gob.gz")
	if err := db.Save(path); err != nil {
		tb.Fatalf("Save: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		tb.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, gz); err != nil {
		tb.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// edgeValuesSHA256 is the digest of edgeValuesDB's gunzipped Save
// stream, recorded when each cell still laid out one field per kind.
const edgeValuesSHA256 = "c9b822ed258b7b9b5088bb7e88f262e0ad750cf2195deb729473c9801e953cd5"

// edgeValuesDB holds a cell of every kind at the edges of its payload:
// NULLs, NaN, -0, ±Inf, the int64 extremes, text with NUL bytes, and
// timestamps with nanoseconds, before 1970 and at both ends of the
// storable range.
func edgeValuesDB(tb testing.TB) *DB {
	tb.Helper()
	db := Open()
	mustExec(tb, db, `CREATE TABLE e (id INTEGER PRIMARY KEY, f FLOAT, s TEXT, b BOOLEAN, at TIMESTAMP)`)
	mustExec(tb, db, `CREATE INDEX ON e (f)`)
	mustExec(tb, db, `CREATE INDEX ON e (at)`)
	ns := time.Date(2008, 1, 2, 3, 4, 5, 1, time.FixedZone("x", -4*3600))
	mustInsert(tb, db, "e", []string{"id", "f", "s", "b", "at"},
		[]Value{Int(1), Float(math.NaN()), Text("x\x00y"), Bool(false), Time(time.Unix(0, -1))},
		[]Value{Int(-1 << 63), Float(math.Copysign(0, -1)), Text(""), Bool(true), Time(ns)},
		[]Value{Int(1<<63 - 1), Float(math.Inf(1)), Null(), Null(), Time(time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC))},
		[]Value{Int(0), Float(math.Inf(-1)), Text("ü"), Bool(false), Time(time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC))},
		[]Value{Int(2), Int(7), Text("t"), Bool(true), Null()},
		[]Value{Int(3), Float(0.1), Text("\x00"), Null(), Time(ns.Add(1))})
	return db
}

// TestSaveGoldenEdgeValues pins the file format over edge values: Save
// writes the recorded bytes, and Load reads back every cell in its
// key class, so a second Save writes them again.
func TestSaveGoldenEdgeValues(t *testing.T) {
	db := edgeValuesDB(t)
	if got := saveDigest(t, db); got != edgeValuesSHA256 {
		t.Errorf("Save stream SHA-256 %s, want %s", got, edgeValuesSHA256)
	}
	path := filepath.Join(t.TempDir(), "edge.gob.gz")
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got := saveDigest(t, back); got != edgeValuesSHA256 {
		t.Errorf("re-saved stream SHA-256 %s, want %s", got, edgeValuesSHA256)
	}
	var want [][]Value
	if err := ScanTable(db, "e", func(row []Value) bool { want = append(want, append([]Value(nil), row...)); return true }); err != nil {
		t.Fatal(err)
	}
	i := 0
	err = ScanTable(back, "e", func(row []Value) bool {
		for j, v := range row {
			if w := want[i][j]; v.Kind() != w.Kind() || v.mapKey() != w.mapKey() || !v.AsTime().Equal(w.AsTime()) {
				t.Errorf("row %d column %d: loaded %s %v, saved %s %v", i, j, v.Kind(), v, w.Kind(), w)
			}
		}
		i++
		return true
	})
	if err != nil || i != len(want) {
		t.Fatalf("loaded %d rows, want %d (%v)", i, len(want), err)
	}
}

// writeGob writes tables as Save lays a file out: a gzip-compressed
// gob stream of the table count, then each table.
func writeGob(tb testing.TB, tables ...gobTable) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "db.gob.gz")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	enc := gob.NewEncoder(gz)
	if err := enc.Encode(len(tables)); err != nil {
		tb.Fatal(err)
	}
	for _, t := range tables {
		if err := enc.Encode(t); err != nil {
			tb.Fatal(err)
		}
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path
}

// TestLoadRefusesWhatSaveNeverWrites: a column of a kind no column
// holds (NULL, an unknown kind, or the -1 that once tagged multi-column
// map keys) and a table named twice fail to load, with an error naming
// the table and column, instead of loading cells without payloads or
// silently keeping the last table.
func TestLoadRefusesWhatSaveNeverWrites(t *testing.T) {
	for _, kind := range []Kind{KindNull, 7, -1} {
		path := writeGob(t, gobTable{
			Name: "vt",
			Cols: []ColumnDef{{Name: "kc", Kind: kind}},
			Rows: [][]gobValue{{{Kind: kind, S: "a"}}, {{Kind: kind, S: "b"}}},
		})
		db, err := Load(path)
		if err == nil || !strings.Contains(err.Error(), "vt") || !strings.Contains(err.Error(), "kc") {
			t.Errorf("column kind %d: Load = %v, %v; want an error naming table vt and column kc", int(kind), db, err)
		}
	}
	texts := func(ss ...string) [][]gobValue {
		var rows [][]gobValue
		for _, s := range ss {
			rows = append(rows, []gobValue{{Kind: KindText, S: s}})
		}
		return rows
	}
	cols := []ColumnDef{{Name: "kc", Kind: KindText}}
	path := writeGob(t, gobTable{Name: "vt", Cols: cols, Rows: texts("a", "b")},
		gobTable{Name: "vt", Cols: cols, Rows: texts("c")})
	if db, err := Load(path); err == nil || !strings.Contains(err.Error(), "vt") {
		t.Errorf("table named twice: Load = %v, %v; want an error naming table vt", db, err)
	}
}

// TestInsertRowsRefusesRowsPastInt32: row ids are int32s, so a batch
// that would take a table past 2^31-1 rows is refused whole.
func TestInsertRowsRefusesRowsPastInt32(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (k INTEGER)`)
	db.tables["t"].n = maxRows - 1 // as if the table were that full
	rows := [][]Value{{Int(1)}, {Int(2)}}
	if err := InsertRows(db, "t", []string{"k"}, rows); err == nil {
		t.Fatal("InsertRows took a table past 2^31-1 rows")
	}
	if n := db.tables["t"].n; n != maxRows-1 {
		t.Errorf("refused batch left %d rows, want %d", n, maxRows-1)
	}
}

// tupleKey returns the key encoding of a tuple, as join keys, GROUP BY
// and DISTINCT build it with appendKey.
func tupleKey(vals ...Value) string {
	var b []byte
	for _, v := range vals {
		b = appendKey(b, v)
	}
	return string(b)
}

// TestTupleKeyIsCollisionFree: over texts built from pieces that
// include the encoding of an empty text part, two-column tuples share a
// key exactly when both columns do; numeric parts key by class.
func TestTupleKeyIsCollisionFree(t *testing.T) {
	enc := tupleKey(Text(""), Text(""))
	pieces := []string{"a", "b", "\x00", enc[:len(enc)/2]}
	pieces = append(pieces, "")
	var texts []string // every concatenation of up to three pieces
	for _, p := range pieces {
		for _, q := range pieces {
			for _, r := range pieces {
				texts = append(texts, p+q+r)
			}
		}
	}
	seen := make(map[string][2]string)
	for _, x := range texts {
		for _, y := range texts {
			k := tupleKey(Text(x), Text(y))
			if prev, dup := seen[k]; dup && prev != [2]string{x, y} {
				t.Fatalf("(%q, %q) and (%q, %q) share a key", prev[0], prev[1], x, y)
			}
			seen[k] = [2]string{x, y}
		}
	}
	for _, pair := range [][2][]Value{
		{{Int(3), Float(0.5)}, {Float(3), Float(0.5)}},
		{{Float(math.NaN()), Float(math.Copysign(0, -1))}, {Float(-math.NaN()), Int(0)}},
	} {
		if tupleKey(pair[0]...) != tupleKey(pair[1]...) {
			t.Errorf("%v and %v key apart", pair[0], pair[1])
		}
	}
	if tupleKey(Int(1), Text("")) == tupleKey(Bool(true), Text("")) {
		t.Error("INTEGER 1 and TRUE share a tuple key")
	}
}

// TestIntegerJoinKeysMatchExactly: an INTEGER join key joins only the
// rows that hold it, whether the build side is probed through its
// primary key or hashed on its int64s: a key that falls between two
// stored keys joins nothing, and neither does a NULL key beside a 0.
func TestIntegerJoinKeysMatchExactly(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE p (k INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)`)
	mustInsert(t, db, "p", []string{"k"}, []Value{Int(0)}, []Value{Int(2)}, []Value{Null()})
	mustInsert(t, db, "b", []string{"id", "k", "tag"},
		[]Value{Int(1), Int(0), Text("zero")}, []Value{Int(3), Null(), Text("null")})
	for _, tc := range []struct{ q, want string }{
		{`SELECT p.k, b.tag FROM p JOIN b ON b.id = p.k`, "[]"},
		{`SELECT p.k, b.tag FROM p JOIN b ON b.k = p.k`, "[[0 zero]]"},
	} {
		if got := fmt.Sprint(mustQuery(t, db, tc.q).Rows); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.q, got, tc.want)
		}
	}
}

// TestKeyedPathsDoNotAllocatePerRow: inserting a batch, probing a hash
// join and looking a value up through an index or the primary key
// allocate nothing per row.
func TestKeyedPathsDoNotAllocatePerRow(t *testing.T) {
	const n = 10_000
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{Int(int64(i)), Int(int64(i % 500)), Text(fmt.Sprintf("tag%d", i%7))}
	}
	cols := []string{"id", "k", "tag"}
	newDB := func() *DB {
		db := Open()
		mustExec(t, db, `CREATE TABLE a (id INTEGER PRIMARY KEY, k INTEGER, tag TEXT)`)
		mustInsert(t, db, "a", cols, rows...)
		return db
	}
	if allocs := testing.AllocsPerRun(3, func() { newDB() }); allocs >= n/10 {
		t.Errorf("creating and filling a %d-row table allocates %.0f objects, want fewer than %d", n, allocs, n/10)
	}

	db := newDB()
	mustExec(t, db, `CREATE TABLE b (id INTEGER PRIMARY KEY, tag TEXT)`)
	mustExec(t, db, `CREATE INDEX ON a (tag)`)
	for i := 0; i < 500; i++ {
		mustInsert(t, db, "b", []string{"id", "tag"}, []Value{Int(int64(i)), Text("x")})
	}
	// The build side filters to nothing, so the probe of every a row
	// is a map miss.
	const q = `SELECT COUNT(*) FROM a JOIN b ON a.k = b.id WHERE b.tag = 'none'`
	if res := mustQuery(t, db, q); res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("%s = %v, want 0", q, res.Rows)
	}
	if allocs := testing.AllocsPerRun(5, func() { mustQuery(t, db, q) }); allocs >= 1000 {
		t.Errorf("probing %d rows against an empty build side allocates %.0f objects, want fewer than 1000", n, allocs)
	}

	// A lookup in a one-run index answers with a window on the run.
	a := db.tables["a"]
	for _, tc := range []struct {
		col string
		val Value
	}{
		{"tag", Text("tag3")},
		{"tag", Text("absent")},
		{"id", Int(4321)},
		{"id", Float(4321)},
		{"id", Int(n)},
	} {
		ci := a.colIdx[tc.col]
		lookup := func() []int32 {
			r := keyRange{eq: true, lo: bound{v: tc.val, set: true}}
			return a.indexOn(ci).rows(&a.vecs[ci], &r)
		}
		if allocs := testing.AllocsPerRun(100, func() { lookup() }); allocs != 0 {
			t.Errorf("index lookup %s = %v allocates %.0f objects, want 0", tc.col, tc.val, allocs)
		}
	}
}
