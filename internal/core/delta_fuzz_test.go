package core

import (
	"reflect"
	"strings"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// The differential fuzz target of the delta path: fuzz bytes pick a
// base/delta split of a small corpus, edits to the delta entries, a
// chain of up to three deltas, whether the base is first re-adopted
// from its exported columns, and the worker count. Every epoch must
// equal — exported columns and every table — a cold NewStudy over the
// merged entry sequence the delta semantics define, pass SelfCheck, and
// leave every earlier epoch answering exactly as it did.

// fuzzDeltaSource is the fuzz corpus: 240 entries over seven years and
// six distros, in generator (not identifier) order.
var fuzzDeltaSource = onceSource(func() ([]*cve.Entry, *osmap.Registry, error) {
	return synthetic(corpus.SyntheticConfig{Entries: 240, Distros: 6, Seed: 5, FromYear: 2004, ToYear: 2011})
})

// The delta edits, one per kind byte (modulo their count).
const (
	editRepublish  = iota // the entry unchanged
	editYearMove          // published one or two years earlier or later
	editValidity          // the DISPUTED tag toggled
	editSkip              // no clustered OS product left
	editYearBefore        // published before the corpus's first year
	editYearAfter         // published after the corpus's last year
	editEmptyYear         // every entry of the entry's year moved a year on
	editRepeat            // republished twice in the delta, year-moved first
	numEdits
)

// fuzzBytes reads the fuzz input one byte at a time, zeros once it runs
// out.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// deltaSeed encodes a fuzz input: the base split (of 256), the flags
// byte (bit 0 adopted base, bit 1 four workers, bit 2 a repeated
// identifier in the base, bits 3-4 chain length less one), the Add
// batch size, then per delta a count and (edit, pick) pairs.
func deltaSeed(split, flags, batch int, deltas ...[]int) []byte {
	out := []byte{byte(split), byte(flags), byte(batch)}
	for _, d := range deltas {
		out = append(out, byte(len(d)/2))
		for _, v := range d {
			out = append(out, byte(v))
		}
	}
	return out
}

// seqEntry is one entry of the expected merged sequence; supersedable
// is false for what a delta cannot remove: skipped entries, and invalid
// ones a snapshot adoption stripped of their identifier.
type seqEntry struct {
	e            *cve.Entry
	supersedable bool
}

func FuzzApplyDeltaMatchesColdBuild(f *testing.F) {
	for edit := 0; edit < numEdits; edit++ {
		// One case per edit: a two-entry delta over the first two thirds
		// of the corpus, touching a base entry and one past the split.
		f.Add(deltaSeed(170, 0, 1, []int{edit, 40, edit, 230}))
	}
	f.Add(deltaSeed(200, 1|2|4|2<<3, 3,
		[]int{editYearMove, 10, editValidity, 90, editRepeat, 250},
		[]int{editEmptyYear, 60, editYearBefore, 130},
		[]int{editSkip, 20, editYearAfter, 5, editRepublish, 200}))
	f.Add(deltaSeed(0, 2, 7, []int{editEmptyYear, 100}))
	f.Add(deltaSeed(255, 1|4, 2, []int{editValidity, 3, editValidity, 33, editYearMove, 66}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		ents, registry := fuzzDeltaSource(t)
		split := in.next() * len(ents) / 256
		flags := in.next()
		batch := 1 + in.next()%8
		opts := []Option{WithRegistry(registry)}
		if flags&2 != 0 {
			opts = append(opts, WithParallelism(4))
		}
		lo, hi := 0, 0
		for i, e := range ents {
			if y := e.Year(); i == 0 || y < lo {
				lo = y
			}
			if y := e.Year(); y > hi {
				hi = y
			}
		}
		pick := func() *cve.Entry { return ents[in.next()*len(ents)/256].Clone() }

		base := append([]*cve.Entry(nil), ents[:split]...)
		if flags&4 != 0 && len(base) > 0 {
			dup := base[in.next()*len(base)/256].Clone()
			dup.Published = dup.Published.AddDate(1, 0, 0)
			base = append(base, dup)
		}
		shell := newStudyShell(opts)
		outcome := func(e *cve.Entry) digested { return shell.digestBatch([]*cve.Entry{e})[0] }
		adopted := flags&1 != 0
		var seq []seqEntry
		for _, e := range base {
			d := outcome(e)
			seq = append(seq, seqEntry{e, d.ok && (!adopted || d.rec.validity == classify.Valid)})
		}
		epoch := NewStudy(base, opts...)
		if adopted {
			var err error
			if epoch, err = FromColumns(epoch.ExportColumns(), opts...); err != nil {
				t.Fatalf("FromColumns: %v", err)
			}
		}

		type seen struct {
			s    *Study
			cols *Columns
			fp   map[string]any
		}
		epochs := []seen{{epoch, epoch.ExportColumns(), studyFingerprint(epoch)}}
		for chain := 1 + (flags>>3)%3; chain > 0; chain-- {
			var delta []*cve.Entry
			for n := in.next() % 8; n > 0; n-- {
				edit, e := in.next()%numEdits, pick()
				switch edit {
				case editYearMove:
					e.Published = e.Published.AddDate([]int{-2, -1, 1, 2}[in.next()%4], 0, 0)
				case editValidity:
					if tagged, ok := strings.CutPrefix(e.Summary, "** DISPUTED ** "); ok {
						e.Summary = tagged
					} else {
						e.Summary = "** DISPUTED ** " + e.Summary
					}
				case editSkip:
					e.Products = []cpe.Name{{Part: cpe.PartApplication, Vendor: "acme", Product: "widget"}}
				case editYearBefore:
					e.Published = e.Published.AddDate(lo-1-in.next()%2-e.Year(), 0, 0)
				case editYearAfter:
					e.Published = e.Published.AddDate(hi+1+in.next()%2-e.Year(), 0, 0)
				case editEmptyYear:
					for _, x := range ents {
						if x.Year() == e.Year() {
							x = x.Clone()
							x.Published = x.Published.AddDate(1, 0, 0)
							delta = append(delta, x)
						}
					}
					continue
				case editRepeat:
					moved := e.Clone()
					moved.Published = moved.Published.AddDate(1, 0, 0)
					delta = append(delta, moved)
				}
				delta = append(delta, e)
			}

			// The merged sequence: the supersedable entries whose
			// identifier the delta names go, then the delta's last
			// occurrence of each identifier follows in arrival order.
			last := make(map[cve.ID]int, len(delta))
			for i, e := range delta {
				last[e.ID] = i
			}
			kept := seq[:0:0]
			for _, x := range seq {
				if _, named := last[x.e.ID]; !named || !x.supersedable {
					kept = append(kept, x)
				}
			}
			for i, e := range delta {
				if last[e.ID] == i {
					kept = append(kept, seqEntry{e, outcome(e).ok})
				}
			}
			seq = kept

			b := NewDeltaBuilder(epoch)
			applyInBatches(b, delta, batch)
			epoch = b.Finish()
			merged := make([]*cve.Entry, len(seq))
			for i, x := range seq {
				merged[i] = x.e
			}
			want := NewStudy(merged, opts...)
			cols := epoch.ExportColumns()
			if !reflect.DeepEqual(cols, want.ExportColumns()) {
				t.Fatalf("delta epoch %d: columns differ from the cold build", len(epochs))
			}
			fp := studyFingerprint(epoch)
			if !reflect.DeepEqual(fp, studyFingerprint(want)) {
				t.Fatalf("delta epoch %d: tables differ from the cold build", len(epochs))
			}
			if err := epoch.SelfCheck(); err != nil {
				t.Fatalf("delta epoch %d: SelfCheck: %v", len(epochs), err)
			}
			epochs = append(epochs, seen{epoch, cols, fp})
		}
		// Nothing a later epoch built or computed may have written
		// through a segment an earlier one shares.
		for _, e := range epochs {
			e.s.ClearCache()
		}
		for i, e := range epochs {
			if !reflect.DeepEqual(e.s.ExportColumns(), e.cols) || !reflect.DeepEqual(studyFingerprint(e.s), e.fp) {
				t.Fatalf("epoch %d answers differently after the later epochs were built", i)
			}
		}
	})
}
