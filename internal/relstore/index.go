package relstore

import (
	"cmp"
	"slices"
	"sort"
)

// Sorted indexes. The primary key and every CREATE INDEX column keep
// their rows' distinct keys in Value.Compare order, each key with its
// row ids ascending. Keys keep mapKey's classes: within one column a
// whole float and its integer, or -0 and 0, compare equal and so share
// a key. NULL rows match no comparison and stay out of the index; a
// FLOAT NaN compares equal to every number, so NaN rows sit in a list
// of their own that only an inclusive range reads.
//
// An index is a list of runs, each over a contiguous stretch of rows,
// oldest first, so one key's ids read run after run come out
// ascending. Every insert batch adds a run for its own rows, and a run
// merges into the one before it while that one is less than twice its
// size: a batch costs a sort of its own rows plus amortized merges, and
// an index holds O(log rows) runs.

// run is one sorted piece of an index. Key i's rows are
// ids[offs[i]:offs[i+1]], and its key is the cell of the first of
// them; offs is nil when every key has exactly one row.
type run struct {
	lo, hi int32 // the run covers rows [lo, hi)
	offs   []int32
	ids    []int32
	nan    []int32 // FLOAT NaN rows, ascending
}

func (rn *run) keys() int {
	if rn.offs == nil {
		return len(rn.ids)
	}
	return len(rn.offs) - 1
}

// span returns the ids of keys [a, b).
func (rn *run) span(a, b int) []int32 {
	if rn.offs == nil {
		return rn.ids[a:b:b]
	}
	lo, hi := rn.offs[a], rn.offs[b]
	return rn.ids[lo:hi:hi]
}

// key returns the row whose cell is key i.
func (rn *run) key(i int) int32 {
	if rn.offs == nil {
		return rn.ids[i]
	}
	return rn.ids[rn.offs[i]]
}

// search returns the first key whose cell compares to v at or above
// (strict: above) zero.
func (rn *run) search(c *column, v Value, strict bool) int {
	return sort.Search(rn.keys(), func(i int) bool {
		d := c.value(rn.key(i)).Compare(v)
		return d > 0 || !strict && d == 0
	})
}

// index is the sorted index of one column.
type index struct {
	col  int
	runs []run
}

// add indexes rows [lo, hi) of c, the rows an insert batch appended.
func (ix *index) add(c *column, lo, hi int32) {
	if lo == hi {
		return
	}
	ix.runs = append(ix.runs, newRun(c, lo, hi))
	for n := len(ix.runs); n >= 2; n = len(ix.runs) {
		older, newer := &ix.runs[n-2], &ix.runs[n-1]
		if older.hi-older.lo >= 2*(newer.hi-newer.lo) {
			break
		}
		ix.runs[n-2] = mergeRuns(c, older, newer)
		ix.runs = ix.runs[:n-1]
	}
}

// newRun sorts rows [lo, hi) of c into a run.
func newRun(c *column, lo, hi int32) run {
	rn := run{lo: lo, hi: hi}
	ids := make([]int32, 0, hi-lo)
	for r := lo; r < hi; r++ {
		switch {
		case c.null(r):
		case c.nan(r):
			rn.nan = append(rn.nan, r)
		default:
			ids = append(ids, r)
		}
	}
	slices.SortFunc(ids, func(a, b int32) int {
		if d := c.compareRows(a, b); d != 0 {
			return d
		}
		return cmp.Compare(a, b)
	})
	rn.ids = ids
	for i := 1; i < len(ids); i++ {
		if c.compareRows(ids[i-1], ids[i]) == 0 {
			rn.offs = groupKeys(c, ids)
			break
		}
	}
	return rn
}

// groupKeys returns the key offsets of ids sorted by key.
func groupKeys(c *column, ids []int32) []int32 {
	offs := []int32{0}
	for i := 1; i < len(ids); i++ {
		if c.compareRows(ids[i-1], ids[i]) != 0 {
			offs = append(offs, int32(i))
		}
	}
	return append(offs, int32(len(ids)))
}

// mergeRuns merges two adjacent runs, a before b, into one: keys in
// order, and under a key shared by both, a's ids before b's.
func mergeRuns(c *column, a, b *run) run {
	out := run{lo: a.lo, hi: b.hi, ids: make([]int32, 0, len(a.ids)+len(b.ids))}
	offs := make([]int32, 0, a.keys()+b.keys()+1)
	unique := true
	i, j := 0, 0
	for i < a.keys() || j < b.keys() {
		offs = append(offs, int32(len(out.ids)))
		d := 0
		switch {
		case i == a.keys():
			d = 1
		case j == b.keys():
			d = -1
		default:
			d = c.compareRows(a.key(i), b.key(j))
		}
		if d <= 0 {
			out.ids = append(out.ids, a.span(i, i+1)...)
			i++
		}
		if d >= 0 {
			out.ids = append(out.ids, b.span(j, j+1)...)
			j++
		}
		if len(out.ids)-int(offs[len(offs)-1]) > 1 {
			unique = false
		}
	}
	if !unique {
		out.offs = append(offs, int32(len(out.ids)))
	}
	out.nan = append(slices.Clip(a.nan), b.nan...)
	return out
}

// orderable reports whether an index over a column of kind k can
// answer a comparison against v: v is neither NULL nor NaN, and both
// are numbers or both are of one kind. Any other comparison orders by
// kind tag (or is never true), so the caller scans instead.
func orderable(k Kind, v Value) bool {
	switch {
	case v.IsNull():
		return false
	case v.kind == KindFloat || v.kind == KindInt:
		return !v.isNaN() && (k == KindInt || k == KindFloat)
	default:
		return v.kind == k
	}
}

// bound is one end of a key range.
type bound struct {
	v         Value
	inclusive bool
	set       bool
}

// keyRange is a set of keys: the one equal to lo.v when eq is set,
// else those between lo and hi. Every Value in it is orderable against
// the column.
type keyRange struct {
	eq     bool
	lo, hi bound
}

// keys returns run rn's keys [a, b) that r selects.
func (r *keyRange) keys(c *column, rn *run) (a, b int) {
	if r.eq {
		if i, ok := rn.lookup(c, r.lo.v); ok {
			return i, i + 1
		}
		return 0, 0
	}
	a, b = 0, rn.keys()
	if r.lo.set {
		a = rn.search(c, r.lo.v, !r.lo.inclusive)
	}
	if r.hi.set {
		b = rn.search(c, r.hi.v, r.hi.inclusive)
	}
	return a, max(a, b)
}

// withNaN reports whether the range carries the column's NaN rows: a
// NaN compares equal to every number, so it satisfies <= and >=.
func (r *keyRange) withNaN() bool {
	return !r.eq && (r.lo.set && r.lo.inclusive || r.hi.set && r.hi.inclusive)
}

// count returns how many rows the range selects.
func (ix *index) count(c *column, r *keyRange) int {
	n := 0
	for i := range ix.runs {
		rn := &ix.runs[i]
		a, b := r.keys(c, rn)
		n += len(rn.span(a, b))
		if r.withNaN() {
			n += len(rn.nan)
		}
	}
	return n
}

// rows returns the row ids the range selects, ascending. The slice may
// alias the index, so callers must not write to it.
func (ix *index) rows(c *column, r *keyRange) []int32 {
	var out []int32
	for i := range ix.runs {
		rn := &ix.runs[i]
		a, b := r.keys(c, rn)
		ids := rn.span(a, b)
		nan := r.withNaN() && len(rn.nan) > 0
		if !nan && b-a <= 1 {
			// One key: its ids are ascending already. A span's
			// capacity ends at its length, so appending to an aliased
			// out copies it first.
			if out == nil {
				out = ids
			} else {
				out = append(out, ids...)
			}
			continue
		}
		// Several keys, or NaN rows beside them: their ids interleave.
		start := len(out)
		out = append(out, ids...)
		if nan {
			out = append(out, rn.nan...)
		}
		slices.Sort(out[start:])
	}
	return out
}

// lookup returns the position of run rn's key equal to v, which is
// orderable against the column. Keys are distinct, so at most one is.
func (rn *run) lookup(c *column, v Value) (int, bool) {
	n := rn.keys()
	if (c.kind == KindInt || c.kind == KindTime) && v.kind == c.kind {
		// The common case of index-probed joins and primary-key
		// checks on insert, searched without building a Value per
		// step.
		x := int64(v.n)
		if n == 0 || x < c.ints[rn.key(0)] || x > c.ints[rn.key(n-1)] {
			return 0, false
		}
		lo, hi := 0, n
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if c.ints[rn.key(m)] < x {
				lo = m + 1
			} else {
				hi = m
			}
		}
		return lo, c.ints[rn.key(lo)] == x
	}
	i := rn.search(c, v, false)
	return i, i < n && c.value(rn.key(i)).Compare(v) == 0
}

// find returns the ids of run rn's key equal to v.
func (rn *run) find(c *column, v Value) []int32 {
	if i, ok := rn.lookup(c, v); ok {
		return rn.span(i, i+1)
	}
	return nil
}
