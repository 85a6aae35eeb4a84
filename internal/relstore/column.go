package relstore

import (
	"cmp"
	"math"
	"strings"
)

// A table stores each column as one typed vector indexed by row id.
// Rows are appended and never change, so a row id names the same cells
// for the life of the table.

// bitmap is a set of row ids. Rows past its end are unset, so a column
// that never holds a NULL keeps no NULL words at all.
type bitmap []uint64

func (b bitmap) has(r int32) bool {
	w := int(r >> 6)
	return w < len(b) && b[w]&(1<<(uint(r)&63)) != 0
}

func (b *bitmap) add(r int32) {
	w := int(r >> 6)
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (uint(r) & 63)
}

// plainAfter is the distinct-text count past which a TEXT column may
// leave its dictionary: once it holds more than plainAfter distinct
// texts and more than half its rows are distinct, a code saves nothing
// the intern map does not cost again, so the column keeps plain strings
// from then on.
const plainAfter = 64

// column is one column's cells. INTEGER and TIMESTAMP cells are int64s
// (timestamps as UTC nanoseconds since the Unix epoch), FLOAT cells
// float64s and BOOLEAN cells bits. TEXT cells are uint32 codes into
// dict until the column's distinct share passes half its rows (see
// plainAfter), and plain strings after. A NULL row is a set bit in
// nulls; its slot holds the zero value.
type column struct {
	kind   Kind
	nulls  bitmap
	ints   []int64
	floats []float64
	bits   bitmap
	codes  []uint32
	dict   []string
	intern map[string]uint32
	strs   []string
	plain  bool
}

func newColumn(k Kind) column {
	c := column{kind: k}
	if k == KindText {
		c.intern = make(map[string]uint32)
	}
	return c
}

// push appends the cell of row r, which must be the column's next row.
// v is already coerced to the column's kind or NULL.
func (c *column) push(r int32, v Value) {
	if v.IsNull() {
		c.nulls.add(r)
	}
	switch c.kind {
	case KindInt, KindTime:
		c.ints = append(c.ints, int64(v.n))
	case KindFloat:
		c.floats = append(c.floats, math.Float64frombits(v.n))
	case KindBool:
		if v.n != 0 {
			c.bits.add(r)
		}
	case KindText:
		if c.plain {
			c.strs = append(c.strs, v.s)
			return
		}
		code, ok := c.intern[v.s]
		if !ok {
			code = uint32(len(c.dict))
			c.dict = append(c.dict, v.s)
			c.intern[v.s] = code
		}
		c.codes = append(c.codes, code)
	}
}

// settle runs after each insert batch, once the column holds n rows:
// a TEXT column whose distinct texts passed its share leaves its
// dictionary for plain strings.
func (c *column) settle(n int) {
	if c.kind != KindText || c.plain || len(c.dict) <= plainAfter || 2*len(c.dict) <= n {
		return
	}
	c.strs = make([]string, len(c.codes))
	for r, code := range c.codes {
		c.strs[r] = c.dict[code]
	}
	c.codes, c.dict, c.intern, c.plain = nil, nil, nil, true
}

// null reports whether row r is NULL.
func (c *column) null(r int32) bool { return c.nulls.has(r) }

// text returns the text of a non-NULL TEXT row.
func (c *column) text(r int32) string {
	if c.plain {
		return c.strs[r]
	}
	return c.dict[c.codes[r]]
}

// value returns the cell of row r.
func (c *column) value(r int32) Value {
	if c.nulls.has(r) {
		return Value{}
	}
	switch c.kind {
	case KindInt:
		return Int(c.ints[r])
	case KindTime:
		return Value{kind: KindTime, n: uint64(c.ints[r])}
	case KindFloat:
		return Float(c.floats[r])
	case KindBool:
		return Bool(c.bits.has(r))
	case KindText:
		return Text(c.text(r))
	default:
		return Value{}
	}
}

// nan reports whether row r holds a FLOAT NaN, which no sorted index
// key holds (see run).
func (c *column) nan(r int32) bool {
	return c.kind == KindFloat && c.floats[r] != c.floats[r] && !c.nulls.has(r)
}

// compareRows orders two non-NULL, non-NaN rows as Value.Compare
// orders their cells.
func (c *column) compareRows(a, b int32) int {
	switch c.kind {
	case KindInt, KindTime:
		return cmp.Compare(c.ints[a], c.ints[b])
	case KindFloat:
		return compareFloats(c.floats[a], c.floats[b])
	case KindBool:
		return cmp.Compare(b2i(c.bits.has(a)), b2i(c.bits.has(b)))
	case KindText:
		if !c.plain && c.codes[a] == c.codes[b] {
			return 0
		}
		return strings.Compare(c.text(a), c.text(b))
	default:
		return 0
	}
}

// compareFloats orders two non-NaN floats; -0 and 0 are equal.
func compareFloats(f, g float64) int {
	switch {
	case f < g:
		return -1
	case f > g:
		return 1
	default:
		return 0
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
