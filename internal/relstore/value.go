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
// Values are small tagged unions passed by value everywhere; rows are
// []Value slices.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
	t    time.Time
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// Int builds an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float builds a float value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text builds a text value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool builds a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Time builds a timestamp value (stored in UTC).
func Time(v time.Time) Value { return Value{kind: KindTime, t: v.UTC()} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the integer payload (0 when not an integer).
func (v Value) AsInt() int64 { return v.i }

// AsFloat returns the numeric payload as float64, converting integers.
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(v.i)
	}
	return v.f
}

// AsText returns the text payload ("" when not text).
func (v Value) AsText() string { return v.s }

// AsBool returns the boolean payload (false when not boolean).
func (v Value) AsBool() bool { return v.b }

// AsTime returns the timestamp payload (zero when not a timestamp).
func (v Value) AsTime() time.Time { return v.t }

// String renders the value for display and for ORDER BY diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return v.s
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	case KindTime:
		return v.t.Format(time.RFC3339)
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
			return v.f == o.f
		}
		// An integer equals only an integer or a whole float of the
		// same value, exactly as key() hashes them.
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
	case KindBool:
		return v.b == o.b
	case KindTime:
		return v.t.Equal(o.t)
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
		switch {
		case v.b == o.b:
			return 0
		case !v.b:
			return -1
		default:
			return 1
		}
	case KindTime:
		switch {
		case v.t.Before(o.t):
			return -1
		case v.t.After(o.t):
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// key returns a map key identifying the value for hashing (indexes,
// GROUP BY, DISTINCT). Numeric values hash equal exactly when Equal
// holds: a float that is a whole number inside the int64 range keys as
// that integer.
func (v Value) key() string {
	switch v.kind {
	case KindNull:
		return "n"
	case KindInt, KindFloat:
		if n, ok := v.exactInt(); ok {
			return "i" + strconv.FormatInt(n, 10)
		}
		return "f" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindText:
		return "t" + v.s
	case KindBool:
		if v.b {
			return "b1"
		}
		return "b0"
	case KindTime:
		return "d" + strconv.FormatInt(v.t.UnixNano(), 10)
	default:
		return "?"
	}
}

// exactInt returns a numeric value as an int64 when it is an integer or
// a float holding a whole number inside the int64 range [-2^63, 2^63).
func (v Value) exactInt() (int64, bool) {
	switch {
	case v.kind == KindInt:
		return v.i, true
	case v.kind == KindFloat && v.f >= -(1<<63) && v.f < 1<<63 && v.f == math.Trunc(v.f):
		return int64(v.f), true
	default:
		return 0, false
	}
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
		return cmp.Compare(v.i, o.i)
	case v.kind == KindInt:
		return compareIntFloat(v.i, o.f)
	case o.kind == KindInt:
		return -compareIntFloat(o.i, v.f)
	}
	switch {
	case v.f < o.f:
		return -1
	case v.f > o.f:
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
		return Float(float64(v.i)), nil
	}
	return Value{}, fmt.Errorf("relstore: cannot store %s value %q in %s column", v.kind, v, k)
}
