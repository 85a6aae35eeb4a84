package relstore

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
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
	if err := ScanTable(db, "e", func(row []Value) bool { want = append(want, row); return true }); err != nil {
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

// TestTupleKeyIsCollisionFree: over texts built from pieces that
// include the encoding of an empty text part, two-column tuples share a
// key exactly when both columns do; numeric parts key by class.
func TestTupleKeyIsCollisionFree(t *testing.T) {
	enc := tupleKey([]Value{Text(""), Text("")}).s
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
	seen := make(map[Value][2]string)
	for _, x := range texts {
		for _, y := range texts {
			k := tupleKey([]Value{Text(x), Text(y)})
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
		if tupleKey(pair[0]) != tupleKey(pair[1]) {
			t.Errorf("%v and %v key apart", pair[0], pair[1])
		}
	}
	if tupleKey([]Value{Int(1), Text("")}) == tupleKey([]Value{Bool(true), Text("")}) {
		t.Error("INTEGER 1 and TRUE share a tuple key")
	}
}

// TestKeyedPathsDoNotAllocatePerRow: inserting a batch, probing a hash
// join and looking a value up through an index or the primary key
// build no key per row.
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

	a := db.tables["a"]
	for _, tc := range []struct {
		col  string
		val  Value
		want float64 // the result slice of an index hit
	}{
		{"tag", Text("tag3"), 1},
		{"tag", Text("absent"), 0},
		{"id", Int(4321), 0},
		{"id", Float(4321), 0},
		{"id", Int(n), 0},
	} {
		if allocs := testing.AllocsPerRun(100, func() { a.rowsByKey(tc.col, tc.val) }); allocs != tc.want {
			t.Errorf("rowsByKey(%s, %v) allocates %.0f objects, want %.0f", tc.col, tc.val, allocs, tc.want)
		}
	}
}
