package osmap

import (
	"reflect"
	"testing"
)

func TestMaskBasicOps(t *testing.T) {
	var m Mask
	if m.OnesCount() != 0 {
		t.Fatal("zero mask not empty")
	}
	idxs := []int{0, 63, 64, 127, 128, 199}
	for _, i := range idxs {
		m = m.SetGrow(i)
	}
	if len(m) != 4 {
		t.Fatalf("mask holding bit 199 has %d words, want 4", len(m))
	}
	for _, i := range idxs {
		if !m.Has(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if m.Has(1) || m.Has(62) || m.Has(129) || m.Has(400) {
		t.Fatal("unexpected bit set")
	}
	if m.OnesCount() != len(idxs) {
		t.Fatalf("OnesCount = %d, want %d", m.OnesCount(), len(idxs))
	}

	got := make([]int, m.OnesCount())
	if n := m.Bits(got); n != len(idxs) {
		t.Fatalf("Bits wrote %d, want %d", n, len(idxs))
	}
	if !reflect.DeepEqual(got, idxs) {
		t.Fatalf("Bits = %v, want %v", got, idxs)
	}
	var walked []int
	m.ForEachBit(func(i int) { walked = append(walked, i) })
	if !reflect.DeepEqual(walked, idxs) {
		t.Fatalf("ForEachBit = %v, want %v", walked, idxs)
	}
}

func TestMaskSetGrow(t *testing.T) {
	// Indexing past the mask's width panics; the digestion boundary
	// uses SetGrow, which widens the mask instead.
	m := make(Mask, 1).SetGrow(63)
	if len(m) != 1 || !m.Has(63) {
		t.Fatalf("SetGrow(63) on a 1-word mask = %v", m)
	}
	grown := m.SetGrow(130)
	if len(grown) != 3 {
		t.Fatalf("SetGrow(130) width = %d words, want 3", len(grown))
	}
	if !grown.Has(130) || !grown.Has(63) {
		t.Fatal("SetGrow lost bits")
	}
	// In-range SetGrow keeps the same backing array.
	same := grown.SetGrow(2)
	if &same[0] != &grown[0] || !same.Has(2) {
		t.Fatal("in-range SetGrow must not reallocate")
	}
	// The zero mask grows from nothing.
	var zero Mask
	zero = zero.SetGrow(70)
	if !zero.Has(70) || zero.OnesCount() != 1 {
		t.Fatalf("zero-mask SetGrow = %v", zero)
	}
}

func TestMaskEqual(t *testing.T) {
	a := make(Mask, 2)
	for _, i := range []int{3, 70, 100} {
		a = a.SetGrow(i)
	}
	// Width-mismatched comparisons: trailing zero words are ignored.
	wide := make(Mask, 4)
	for _, i := range []int{3, 70, 100} {
		wide = wide.SetGrow(i)
	}
	if !a.Equal(wide) || !wide.Equal(a) {
		t.Fatal("Equal should ignore trailing zero words")
	}
	wide = wide.SetGrow(200)
	if a.Equal(wide) || wide.Equal(a) {
		t.Fatal("bit 200 must break equality")
	}
	b := make(Mask, 2).SetGrow(3)
	if a.Equal(b) {
		t.Fatal("different masks compare equal")
	}
}

func TestSyntheticDistros(t *testing.T) {
	d := SyntheticDistro(7)
	if !d.IsSynthetic() {
		t.Fatal("SyntheticDistro not synthetic")
	}
	if d.String() != "SynOS007" {
		t.Fatalf("String = %q", d.String())
	}
	parsed, err := ParseDistro("SynOS007")
	if err != nil || parsed != d {
		t.Fatalf("ParseDistro(SynOS007) = %v, %v", parsed, err)
	}
	if d.Family() == FamilyUnknown {
		t.Fatal("synthetic distro has no family")
	}
	if y := d.FirstReleaseYear(); y < 1993 || y > 2008 {
		t.Fatalf("FirstReleaseYear = %d", y)
	}
	if _, err := ParseDistro("SynOS9999"); err == nil {
		t.Fatal("out-of-range synthetic name parsed")
	}
}

func TestSyntheticRegistry(t *testing.T) {
	r := NewSyntheticRegistry(32)
	ds := r.Distros()
	if len(ds) != 32 {
		t.Fatalf("universe size %d, want 32", len(ds))
	}
	// The first 11 are the paper's distros, in presentation order.
	if !reflect.DeepEqual(ds[:NumDistros], Distros()) {
		t.Fatalf("first 11 = %v", ds[:NumDistros])
	}
	for _, d := range ds {
		canon := r.CanonicalName(d)
		if canon.Product == "" {
			t.Fatalf("%v has no canonical CPE", d)
		}
		got, ok := r.Cluster(canon)
		if !ok || got != d {
			t.Fatalf("canonical CPE of %v clusters to %v, %v", d, got, ok)
		}
		if len(r.Releases(d)) == 0 {
			t.Fatalf("%v has no releases", d)
		}
	}
	// Default registry still reports the paper's universe.
	if def := NewRegistry(); len(def.Distros()) != NumDistros {
		t.Fatalf("default universe size %d", len(def.Distros()))
	}
	// Narrow universes truncate the paper's list.
	if narrow := NewSyntheticRegistry(5); len(narrow.Distros()) != 5 {
		t.Fatalf("narrow universe size %d", len(narrow.Distros()))
	}
}
