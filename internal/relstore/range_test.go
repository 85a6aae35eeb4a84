package relstore

import (
	"math"
	"slices"
	"testing"
)

// rangeFixture holds integers at the edge of float64's exact integers,
// a stored NaN, -0, NULLs and texts, in id order.
func rangeFixture(tb testing.TB) *DB {
	tb.Helper()
	const p53 = 1 << 53
	db := Open()
	mustExec(tb, db, `CREATE TABLE r (id INTEGER PRIMARY KEY, y INTEGER, f FLOAT, s TEXT)`)
	mustInsert(tb, db, "r", []string{"id", "y", "f", "s"},
		[]Value{Int(1), Int(p53 - 1), Float(math.NaN()), Text("abc")},
		[]Value{Int(2), Int(p53), Float(5), Text("b")},
		[]Value{Int(3), Int(p53 + 1), Float(1.5), Null()},
		[]Value{Int(4), Int(0), Null(), Text("a")},
		[]Value{Int(5), Null(), Float(math.Copysign(0, -1)), Text("")},
		[]Value{Int(6), Int(-7), Float(7), Text("z")})
	return db
}

// TestRangeSemanticsPinned pins what a comparison answers, the same
// through a scan, through the sorted indexes and through the oracle,
// in row order:
//   - a NaN cell compares equal to every number, so it satisfies <= and
//     >= but not <, > or =;
//   - a NaN bound, passed as an argument, makes <= and >= true and < and
//     > false for every non-NULL number;
//   - a bound of another kind orders by kind tag: every integer is below
//     every text and every boolean;
//   - a float bound on an integer column compares exactly at 2^53 - 1,
//     2^53 and 2^53 + 1 (9007199254740993.0 is the float 2^53).
func TestRangeSemanticsPinned(t *testing.T) {
	nan := Float(math.NaN())
	cases := []struct {
		where string
		args  []Value
		want  []int64
	}{
		{`f <= 5`, nil, []int64{1, 2, 3, 5}},
		{`f >= 5`, nil, []int64{1, 2, 6}},
		{`f < 5`, nil, []int64{3, 5}},
		{`f > 5`, nil, []int64{6}},
		{`f = 5`, nil, []int64{2}},
		{`f >= 1.5 AND f <= 5`, nil, []int64{1, 2, 3}},
		{`f > 0 AND f < 7`, nil, []int64{2, 3}},
		{`5 >= f`, nil, []int64{1, 2, 3, 5}},
		{`f <= 0`, nil, []int64{1, 5}},
		{`f >= 0 AND f <= 0`, nil, []int64{1, 5}},
		{`f <= ?`, []Value{nan}, []int64{1, 2, 3, 5, 6}},
		{`f > ?`, []Value{nan}, nil},
		{`y >= ?`, []Value{nan}, []int64{1, 2, 3, 4, 6}},
		{`y < ?`, []Value{nan}, nil},
		{`y = ?`, []Value{nan}, nil},
		{`y < 'abc'`, nil, []int64{1, 2, 3, 4, 6}},
		{`y > 'abc'`, nil, nil},
		{`y <= TRUE`, nil, []int64{1, 2, 3, 4, 6}},
		{`s > 1`, nil, []int64{1, 2, 4, 5, 6}},
		{`s < 1`, nil, nil},
		{`s >= 'abc' AND s < 'z'`, nil, []int64{1, 2}},
		{`s <= 'a'`, nil, []int64{4, 5}},
		{`y >= 9007199254740991.0`, nil, []int64{1, 2, 3}},
		{`y > 9007199254740991.0`, nil, []int64{2, 3}},
		{`y > 9007199254740992.0`, nil, []int64{3}},
		{`y >= 9007199254740993.0`, nil, []int64{2, 3}},
		{`y < 9007199254740993.0`, nil, []int64{1, 4, 6}},
		{`y <= 9007199254740992.0`, nil, []int64{1, 2, 4, 6}},
		{`y > ? AND y < 0.5`, []Value{Float(-7.5)}, []int64{4, 6}},
		{`y > ?`, []Value{Float(-7)}, []int64{1, 2, 3, 4}},
		{`y >= ? AND y < ?`, []Value{Float(-7), Float(1e300)}, []int64{1, 2, 3, 4, 6}},
		{`id > 1.5 AND id <= 3`, nil, []int64{2, 3}},
		{`id >= 2 AND y > 0 AND f <= 5`, nil, []int64{2, 3}},
	}
	run := func(db *DB, stage string) {
		t.Helper()
		for _, tc := range cases {
			q := `SELECT id FROM r WHERE ` + tc.where
			res, err := db.Query(q, tc.args...)
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, q, err)
			}
			var got []int64
			for _, row := range res.Rows {
				got = append(got, row[0].AsInt())
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("%s: %s %v = %v, want %v", stage, q, tc.args, got, tc.want)
			}
			oracle, err := db.queryNaive(q, tc.args...)
			if err != nil || !resultsEqual(oracle, res) {
				t.Errorf("%s: %s %v: oracle %v (%v), planner %v", stage, q, tc.args, oracle, err, res.Rows)
			}
		}
	}
	db := rangeFixture(t)
	run(db, "scan")
	for _, col := range []string{"y", "f", "s"} {
		mustExec(t, db, `CREATE INDEX ON r (`+col+`)`)
	}
	run(db, "indexed")
	// Indexes built over several insert batches hold several runs.
	split := Open()
	mustExec(t, split, `CREATE TABLE r (id INTEGER PRIMARY KEY, y INTEGER, f FLOAT, s TEXT)`)
	for _, col := range []string{"y", "f", "s"} {
		mustExec(t, split, `CREATE INDEX ON r (`+col+`)`)
	}
	if err := ScanTable(db, "r", func(row []Value) bool {
		mustInsert(t, split, "r", []string{"id", "y", "f", "s"}, append([]Value(nil), row...))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	run(split, "indexed per row")
}
