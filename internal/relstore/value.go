// Package relstore is a small embedded relational database with a SQL
// subset, built for the study's ingestion pipeline.
//
// The paper's methodology (§III) revolves around "an SQL database,
// deployed with a custom schema to do the aggregation of vulnerabilities
// by affected products and versions". relstore supplies that substrate
// without any external dependency: typed tables, hash indexes, a
// recursive-descent SQL parser, a planner with inner joins of any
// width, grouping and aggregates, and gob-based persistence.
//
// The dialect covers what the study runs: the schema DDL through Exec,
// and SELECTs through Query, Prepare and ParseSelect.
//
//	CREATE TABLE t (col TYPE [PRIMARY KEY], ...)
//	CREATE INDEX ON t (col)
//	SELECT [DISTINCT] exprs FROM t [JOIN u ON a = b]... [WHERE expr]
//	       [GROUP BY cols] [HAVING expr] [ORDER BY expr [DESC], ...] [LIMIT n]
//
// with integer, float, text, boolean and timestamp columns, AND/OR/NOT,
// comparisons, IN lists, LIKE patterns, and the COUNT/SUM/AVG/MIN/MAX
// aggregates (including COUNT(DISTINCT x)). Rows arrive through the
// typed InsertRow and InsertRows; no statement changes or drops them.
package relstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the value types a column can hold.
type Kind int

// Column kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
	KindTime

	// kindTuple marks a multi-column map key built by tupleKey; no cell
	// holds one.
	kindTuple Kind = -1
)

// String names the kind using the dialect's canonical type spelling.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	case KindTime:
		return "TIMESTAMP"
	case KindNull:
		return "NULL"
	default:
		return "?"
	}
}

// ParseKind resolves a SQL type name to a Kind, accepting the usual
// synonyms (INT/INTEGER, VARCHAR/TEXT, REAL/DOUBLE/FLOAT, DATETIME...).
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(s) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE":
		return KindFloat, nil
	case "TEXT", "VARCHAR", "CHAR", "STRING":
		return KindText, nil
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "TIMESTAMP", "DATETIME", "DATE":
		return KindTime, nil
	default:
		return KindNull, fmt.Errorf("relstore: unknown type %q", s)
	}
}

// Value is one cell. The zero Value is NULL.
//
// A Value is 32 bytes: the kind, one 8-byte payload and a string.
// Integers, float bits, booleans (0 or 1) and timestamps (UTC
// nanoseconds since the Unix epoch) share the payload; only text uses
// the string. Values are passed by value everywhere; rows are []Value
// slices.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int builds an integer value.
func Int(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// Float builds a float value.
func Float(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// Text builds a text value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool builds a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// Time builds a timestamp value, stored as UTC nanoseconds since the
// Unix epoch. Only the instants CheckTime accepts are stored exactly;
// any other instant wraps to an undefined one.
func Time(v time.Time) Value { return Value{kind: KindTime, n: uint64(v.UnixNano())} }

// The storable timestamp range: whole days inside the int64 nanosecond
// range, which runs from 1677-09-21 to 2262-04-11.
var (
	minTime = time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC)
	maxTime = time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC)
)

// CheckTime reports an error unless Time stores t exactly, that is
// unless t lies between 1678-01-01T00:00:00Z and 2262-04-11T00:00:00Z
// inclusive.
func CheckTime(t time.Time) error {
	if t.Before(minTime) || t.After(maxTime) {
		return fmt.Errorf("relstore: timestamp %s lies outside the storable range [1678-01-01, 2262-04-11]",
			t.UTC().Format(time.RFC3339))
	}
	return nil
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload (0 when not an integer).
func (v Value) AsInt() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// AsFloat returns the numeric payload as float64, converting integers.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindInt:
		return float64(int64(v.n))
	case KindFloat:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// AsText returns the text payload ("" when not text).
func (v Value) AsText() string { return v.s }

// AsBool returns the boolean payload (false when not boolean).
func (v Value) AsBool() bool { return v.kind == KindBool && v.n != 0 }

// AsTime returns the timestamp payload in UTC (zero when not a
// timestamp).
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.Unix(0, int64(v.n)).UTC()
}

// String renders the value for display and for ORDER BY diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.AsInt(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.AsBool() {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.AsTime().Format(time.RFC3339)
	default:
		return "?"
	}
}

// numeric reports whether the value participates in arithmetic
// comparisons as a number.
func (v Value) numeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports SQL equality. NULL equals nothing, including NULL
// (three-valued logic is collapsed to false, which is what WHERE needs).
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return false
	}
	if v.numeric() && o.numeric() {
		if v.kind == KindFloat && o.kind == KindFloat {
			return v.AsFloat() == o.AsFloat()
		}
		// An integer equals only an integer or a whole float of the
		// same value, exactly as mapKey normalizes them.
		a, okA := v.exactInt()
		b, okB := o.exactInt()
		return okA && okB && a == b
	}
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindText:
		return v.s == o.s
	case KindBool, KindTime:
		return v.n == o.n
	default:
		return false
	}
}

// Compare orders two non-NULL values of compatible kinds: -1, 0, +1.
// NULLs sort before everything (needed by ORDER BY); incompatible kinds
// order by kind tag so sorting is total and deterministic.
func (v Value) Compare(o Value) int {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	if v.numeric() && o.numeric() {
		return compareNumeric(v, o)
	}
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindText:
		return strings.Compare(v.s, o.s)
	case KindBool:
		return cmp.Compare(v.n, o.n)
	case KindTime:
		return cmp.Compare(int64(v.n), int64(o.n))
	default:
		return 0
	}
}

// mapKey returns the value normalized for hashing (primary keys,
// indexes, hash joins, GROUP BY, DISTINCT, COUNT(DISTINCT)): two values
// have equal map keys exactly when they fall in one equivalence class.
// A float that is a whole number inside the int64 range keys as that
// integer, so numeric keys agree with Equal and -0 keys as 0; every NaN
// keys alike, though NaN equals nothing.
func (v Value) mapKey() Value {
	if v.kind != KindFloat {
		return v
	}
	if n, ok := v.exactInt(); ok {
		return Int(n)
	}
	if f := v.AsFloat(); f != f {
		return Float(math.NaN())
	}
	return v
}

// tupleKey returns the map key of a tuple of values. One value keys as
// its mapKey; any other width keys as one kindTuple value whose string
// holds each part's mapKey as its kind byte, 8-byte payload, uvarint
// string length and string bytes. The parts are self-delimiting, so two
// tuples of one width share a key exactly when every pair of parts
// does.
func tupleKey(vals []Value) Value {
	if len(vals) == 1 {
		return vals[0].mapKey()
	}
	b := make([]byte, 0, 64)
	for _, v := range vals {
		k := v.mapKey()
		b = append(b, byte(k.kind))
		b = binary.LittleEndian.AppendUint64(b, k.n)
		b = binary.AppendUvarint(b, uint64(len(k.s)))
		b = append(b, k.s...)
	}
	return Value{kind: kindTuple, s: string(b)}
}

// exactInt returns a numeric value as an int64 when it is an integer or
// a float holding a whole number inside the int64 range [-2^63, 2^63).
func (v Value) exactInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.AsInt(), true
	case KindFloat:
		if f := v.AsFloat(); f >= -(1<<63) && f < 1<<63 && f == math.Trunc(f) {
			return int64(f), true
		}
	}
	return 0, false
}

// compareNumeric orders two numeric values exactly. Two integers or two
// floats compare as such (a NaN orders equal to everything, as before).
// An integer against a float compares without rounding the integer: a
// float that is a whole number inside the int64 range compares as that
// integer, and any other float by magnitude — beyond the range it lies
// past every integer, and otherwise strictly between floor(f) and
// floor(f)+1.
func compareNumeric(v, o Value) int {
	switch {
	case v.kind == KindInt && o.kind == KindInt:
		return cmp.Compare(v.AsInt(), o.AsInt())
	case v.kind == KindInt:
		return compareIntFloat(v.AsInt(), o.AsFloat())
	case o.kind == KindInt:
		return -compareIntFloat(o.AsInt(), v.AsFloat())
	}
	switch f, g := v.AsFloat(), o.AsFloat(); {
	case f < g:
		return -1
	case f > g:
		return 1
	default:
		return 0
	}
}

func compareIntFloat(i int64, f float64) int {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	floor := math.Floor(f)
	if n := int64(floor); i != n {
		return cmp.Compare(i, n)
	}
	if floor == f {
		return 0
	}
	return -1
}

// coerce validates (and where harmless, converts) a value for storage in
// a column of the given kind. Integers widen to floats; NULL is accepted
// by every column.
func coerce(v Value, k Kind) (Value, error) {
	if v.IsNull() || v.kind == k {
		return v, nil
	}
	if k == KindFloat && v.kind == KindInt {
		return Float(v.AsFloat()), nil
	}
	return Value{}, fmt.Errorf("relstore: cannot store %s value %q in %s column", v.kind, v, k)
}
