package core

import (
	"reflect"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
)

// deltaFixture builds a base entry list plus a delta batch exercising
// every supersession edge: a modified republication (year + products
// change), a valid→invalid flip, a valid→skip flip (no clustered OS
// product left), an invalid→valid flip, and brand-new entries.
type deltaFixture struct {
	base  []*cve.Entry
	delta []*cve.Entry
	// merged is the entry list whose cold NewStudy build the delta-applied
	// study must equal: base minus superseded IDs, then delta in order.
	merged []*cve.Entry
}

func makeDeltaFixture(t *testing.T) *deltaFixture {
	t.Helper()
	c, err := corpus.Generate()
	if err != nil {
		t.Fatalf("corpus.Generate: %v", err)
	}
	if len(c.Entries) < 40 {
		t.Fatalf("calibrated corpus too small: %d entries", len(c.Entries))
	}
	// Hold out the tail as brand-new delta entries.
	nNew := 5
	base := c.Entries[:len(c.Entries)-nNew]
	fresh := c.Entries[len(c.Entries)-nNew:]

	// Pick victims among the base entries by their digest outcome.
	var validIdx []int
	invalidIdx := -1
	for i, e := range base {
		if !e.HasOSProduct() {
			continue
		}
		if classify.EntryValidity(e) == classify.Valid {
			validIdx = append(validIdx, i)
		} else if invalidIdx < 0 {
			invalidIdx = i
		}
	}
	if len(validIdx) < 3 {
		t.Fatalf("corpus has only %d valid OS entries", len(validIdx))
	}

	modValid := base[validIdx[0]].Clone()
	modValid.Summary = "Heap overflow in the rewritten entry (republished)."
	modValid.Published = modValid.Published.AddDate(2, 0, 0)

	modInvalid := base[validIdx[1]].Clone()
	modInvalid.Summary = "** DISPUTED ** " + modInvalid.Summary

	modSkip := base[validIdx[2]].Clone()
	modSkip.Products = []cpe.Name{{Part: cpe.PartApplication, Vendor: "acme", Product: "widget"}}

	delta := []*cve.Entry{modValid, modInvalid, modSkip}
	if invalidIdx >= 0 {
		invToValid := base[invalidIdx].Clone()
		invToValid.Summary = "Buffer overflow in the formerly disputed entry."
		delta = append(delta, invToValid)
	}
	delta = append(delta, fresh...)

	superseded := make(map[cve.ID]bool, len(delta))
	for _, e := range delta {
		superseded[e.ID] = true
	}
	var merged []*cve.Entry
	for _, e := range base {
		if !superseded[e.ID] {
			merged = append(merged, e)
		}
	}
	merged = append(merged, delta...)
	return &deltaFixture{base: base, delta: delta, merged: merged}
}

// applyInBatches feeds the delta to a DeltaBuilder in fixed-size batches.
func applyInBatches(b *DeltaBuilder, entries []*cve.Entry, batch int) {
	for lo := 0; lo < len(entries); lo += batch {
		hi := lo + batch
		if hi > len(entries) {
			hi = len(entries)
		}
		b.Add(entries[lo:hi]...)
	}
}

// TestDeltaMatchesColdBuild asserts a delta-applied study is
// column-for-column identical (record layout, masks, release references,
// postings, skip count) to a cold build over the merged entry list, for
// any batch split and worker count.
func TestDeltaMatchesColdBuild(t *testing.T) {
	fx := makeDeltaFixture(t)
	for _, tc := range []struct {
		name  string
		batch int
		opts  []Option
	}{
		{"bitset serial batch1", 1, nil},
		{"bitset serial batch3", 3, nil},
		{"bitset parallel", 512, []Option{WithParallelism(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := NewStudy(fx.base, tc.opts...)
			want := NewStudy(fx.merged, tc.opts...)
			b := NewDeltaBuilder(base)
			applyInBatches(b, fx.delta, tc.batch)
			s := b.Finish()
			if !reflect.DeepEqual(s.ExportColumns(), want.ExportColumns()) {
				t.Fatal("delta-applied columns differ from cold build")
			}
			if !reflect.DeepEqual(studyFingerprint(s), studyFingerprint(want)) {
				t.Fatal("delta-applied tables differ from cold build")
			}
			if err := s.SelfCheck(); err != nil {
				t.Fatalf("SelfCheck: %v", err)
			}
		})
	}
}

// TestDeltaLastWriterWinsWithinDelta asserts a delta republishing the
// same identifier twice keeps only the last occurrence, at its arrival
// position.
func TestDeltaLastWriterWinsWithinDelta(t *testing.T) {
	fx := makeDeltaFixture(t)
	dup := fx.delta[0].Clone()
	dup.Summary = "Third revision of the same identifier."
	delta := append(append([]*cve.Entry{}, fx.delta...), dup)

	superseded := make(map[cve.ID]bool)
	for _, e := range delta {
		superseded[e.ID] = true
	}
	var merged []*cve.Entry
	for _, e := range fx.base {
		if !superseded[e.ID] {
			merged = append(merged, e)
		}
	}
	// Within the delta, only each identifier's last occurrence survives.
	last := make(map[cve.ID]int, len(delta))
	for i, e := range delta {
		last[e.ID] = i
	}
	for i, e := range delta {
		if last[e.ID] == i {
			merged = append(merged, e)
		}
	}

	base := NewStudy(fx.base)
	want := NewStudy(merged)
	b := NewDeltaBuilder(base)
	b.Add(delta...)
	s := b.Finish()
	if !reflect.DeepEqual(s.ExportColumns(), want.ExportColumns()) {
		t.Fatal("within-delta duplicate resolution differs from cold build")
	}
}

// TestDeltaOnAdoptedBase asserts the delta path works identically on a
// base adopted from exported columns (the snapshot warm-start shape,
// whose records carry no source entries) — the production reload case:
// boot from snapshot, apply a live delta.
func TestDeltaOnAdoptedBase(t *testing.T) {
	fx := makeDeltaFixture(t)
	entryBase := NewStudy(fx.base)
	adoptedBase, err := FromColumns(entryBase.ExportColumns())
	if err != nil {
		t.Fatalf("FromColumns: %v", err)
	}

	// Adopted invalid records carry no identifier and cannot be
	// superseded; restrict the delta to valid-record and fresh IDs so
	// both bases resolve it identically.
	validIDs := make(map[cve.ID]bool)
	for _, ref := range entryBase.Vulnerabilities(FatServer) {
		validIDs[ref.ID] = true
	}
	baseIDs := make(map[cve.ID]bool)
	for _, e := range fx.base {
		baseIDs[e.ID] = true
	}
	var delta []*cve.Entry
	for _, e := range fx.delta {
		if validIDs[e.ID] || !baseIDs[e.ID] {
			delta = append(delta, e)
		}
	}

	bd := NewDeltaBuilder(entryBase)
	bd.Add(delta...)
	fromEntries := bd.Finish()

	bd = NewDeltaBuilder(adoptedBase)
	bd.Add(delta...)
	fromAdopted := bd.Finish()

	if !reflect.DeepEqual(fromAdopted.ExportColumns(), fromEntries.ExportColumns()) {
		t.Fatal("delta on adopted base differs from delta on entry-built base")
	}
	if err := fromAdopted.SelfCheck(); err != nil {
		t.Fatalf("SelfCheck: %v", err)
	}
	// The Table VI path must not touch the (absent) source entries.
	ds := fromAdopted.Distros()
	if n := fromAdopted.ReleaseOverlap(ds[0], "1.0", ds[1], "1.0"); n < 0 {
		t.Fatalf("ReleaseOverlap = %d", n)
	}
}

// TestDeltaBuilderGuards asserts use-after-Finish panics.
func TestDeltaBuilderGuards(t *testing.T) {
	b := NewDeltaBuilder(NewStudy(nil))
	b.Finish()
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s after Finish did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("Add", func() { b.Add(nil...) })
	assertPanics("Finish", func() { b.Finish() })
}
