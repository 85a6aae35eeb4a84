package core

import (
	"testing"

	"osdiversity/internal/corpus"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
)

var studyCache *Study

// paperStudy builds the Study over the calibrated corpus: the full
// end-to-end check that the analysis engine re-derives the paper.
func paperStudy(t testing.TB) *Study {
	t.Helper()
	if studyCache == nil {
		c, err := corpus.Generate()
		if err != nil {
			t.Fatalf("corpus.Generate: %v", err)
		}
		studyCache = NewStudy(c.Entries)
	}
	return studyCache
}

func TestStudyTableI(t *testing.T) {
	s := paperStudy(t)
	rows, distinct := s.ValidityTable()
	if len(rows) != osmap.NumDistros {
		t.Fatalf("ValidityTable returned %d rows", len(rows))
	}
	for _, row := range rows {
		if row.Valid != paperdata.ValidCounts[row.Distro] {
			t.Errorf("%v: valid = %d, paper %d", row.Distro, row.Valid, paperdata.ValidCounts[row.Distro])
		}
		inv := paperdata.InvalidCounts[row.Distro]
		if row.Unknown != inv.Unknown || row.Unspecified != inv.Unspecified || row.Disputed != inv.Disputed {
			t.Errorf("%v: invalid = %d/%d/%d, paper %d/%d/%d", row.Distro,
				row.Unknown, row.Unspecified, row.Disputed, inv.Unknown, inv.Unspecified, inv.Disputed)
		}
	}
	if distinct.Valid != paperdata.DistinctValid {
		t.Errorf("distinct valid = %d, paper %d", distinct.Valid, paperdata.DistinctValid)
	}
	if distinct.Unknown != paperdata.DistinctInvalid.Unknown ||
		distinct.Unspecified != paperdata.DistinctInvalid.Unspecified ||
		distinct.Disputed != paperdata.DistinctInvalid.Disputed {
		t.Errorf("distinct invalid = %+v", distinct)
	}
}

func TestStudyTableII(t *testing.T) {
	s := paperStudy(t)
	rows, shares := s.ClassTable()
	for _, row := range rows {
		want := paperdata.ClassTable[row.Distro]
		if row.Driver != want.Driver || row.Kernel != want.Kernel ||
			row.SysSoft != want.SysSoft || row.App != want.App {
			t.Errorf("%v: classes = %+v, paper %+v", row.Distro, row, want)
		}
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("class shares sum to %.2f%%", sum)
	}
}

func TestStudyTableIII(t *testing.T) {
	s := paperStudy(t)
	for _, p := range osmap.AllPairs() {
		want := paperdata.PairTable[p]
		if got := s.Overlap(p, FatServer); got != want.All {
			t.Errorf("%v All: got %d, paper %d", p, got, want.All)
		}
		if got := s.Overlap(p, ThinServer); got != want.NoApp {
			t.Errorf("%v NoApp: got %d, paper %d", p, got, want.NoApp)
		}
		if got := s.Overlap(p, IsolatedThinServer); got != want.Remote {
			t.Errorf("%v Remote: got %d, paper %d", p, got, want.Remote)
		}
	}
	// And the v(A) totals per profile.
	for _, d := range osmap.Distros() {
		if got := s.Total(d, FatServer); got != paperdata.ValidCounts[d] {
			t.Errorf("%v fat total = %d, paper %d", d, got, paperdata.ValidCounts[d])
		}
		if got := s.Total(d, ThinServer); got != paperdata.ClassTable[d].NonApp() {
			t.Errorf("%v thin total = %d, paper %d", d, got, paperdata.ClassTable[d].NonApp())
		}
		if got := s.Total(d, IsolatedThinServer); got != paperdata.RemoteTotals[d] {
			t.Errorf("%v remote total = %d, paper %d", d, got, paperdata.RemoteTotals[d])
		}
	}
}

func TestStudyTableIV(t *testing.T) {
	s := paperStudy(t)
	for _, p := range osmap.AllPairs() {
		got := s.PartBreakdown(p)
		want := paperdata.PartTable[p]
		if got.Driver != want.Driver || got.Kernel != want.Kernel || got.SysSoft != want.SysSoft {
			t.Errorf("%v: parts = %+v, paper %+v", p, got, want)
		}
	}
}

func TestStudyTableV(t *testing.T) {
	s := paperStudy(t)
	for p, want := range paperdata.PeriodTable {
		got := s.PeriodSplit(p, paperdata.HistoryEndYear)
		if got.History != want.History || got.Observed != want.Observed {
			t.Errorf("%v: split = %+v, paper %+v", p, got, want)
		}
	}
}

func TestStudyTableVI(t *testing.T) {
	s := paperStudy(t)
	labels := map[string]struct {
		d osmap.Distro
		v string
	}{
		"Debian2.1":  {osmap.Debian, "2.1"},
		"Debian3.0":  {osmap.Debian, "3.0"},
		"Debian4.0":  {osmap.Debian, "4.0"},
		"RedHat6.2*": {osmap.RedHat, "6.2*"},
		"RedHat4.0":  {osmap.RedHat, "4.0"},
		"RedHat5.0":  {osmap.RedHat, "5.0"},
	}
	for cell, want := range paperdata.ReleaseTable {
		a, b := labels[cell.A], labels[cell.B]
		if got := s.ReleaseOverlap(a.d, a.v, b.d, b.v); got != want {
			t.Errorf("%s-%s: got %d, paper %d", cell.A, cell.B, got, want)
		}
	}
}

func TestStudyKWiseProducts(t *testing.T) {
	s := paperStudy(t)
	kwise := s.KWiseProducts(FatServer)
	for k, want := range paperdata.KWiseProducts {
		if kwise[k] != want {
			t.Errorf("products >= %d: got %d, paper %d", k, kwise[k], want)
		}
	}
	top := s.MostSharedCounts(3)
	if len(top) != 3 {
		t.Fatalf("MostSharedCounts returned %d", len(top))
	}
	if top[0].ID != cve.MustID("CVE-2008-4609") {
		t.Errorf("most shared entry = %v, want CVE-2008-4609", top[0].ID)
	}
}

func TestStudyKWiseClustersMonotone(t *testing.T) {
	s := paperStudy(t)
	kwise := s.KWiseClusters(FatServer)
	for k := 3; k <= 11; k++ {
		if kwise[k] > kwise[k-1] {
			t.Errorf("k-wise not monotone at %d: %d > %d", k, kwise[k], kwise[k-1])
		}
	}
	if kwise[2] == 0 {
		t.Error("no multi-cluster vulnerabilities found")
	}
}

func TestStudyFilterReduction(t *testing.T) {
	s := paperStudy(t)
	got := s.FilterReduction(FatServer, IsolatedThinServer)
	if got < float64(paperdata.FilterReductionPct)-8 || got > float64(paperdata.FilterReductionPct)+8 {
		t.Errorf("Fat->IsolatedThin reduction = %.0f%%, paper says %d%%", got, paperdata.FilterReductionPct)
	}
	if r := s.FilterReduction(FatServer, FatServer); r != 0 {
		t.Errorf("self reduction = %.1f, want 0", r)
	}
}

func TestStudyTemporalSeries(t *testing.T) {
	s := paperStudy(t)
	for _, d := range osmap.Distros() {
		series := s.TemporalSeries(d)
		total := 0
		for y, n := range series {
			if n < 0 {
				t.Fatalf("%v: negative count in %d", d, y)
			}
			total += n
		}
		if total != paperdata.ValidCounts[d] {
			t.Errorf("%v: series sums to %d, paper total %d", d, total, paperdata.ValidCounts[d])
		}
		first := d.FirstReleaseYear()
		for y, n := range series {
			if d != osmap.Windows2000 && y < first && n > 0 {
				t.Errorf("%v: %d vulnerabilities before first release (%d < %d)", d, n, y, first)
			}
		}
	}
	// The paper's §IV-A observation: Windows 2000 appears in entries
	// published before 1999.
	w2k := s.TemporalSeries(osmap.Windows2000)
	pre := w2k[1997] + w2k[1998]
	if pre != paperdata.Windows2000PreReleaseEntries {
		t.Errorf("Windows2000 pre-1999 entries = %d, paper reports %d", pre, paperdata.Windows2000PreReleaseEntries)
	}
}

func TestStudyYearRange(t *testing.T) {
	s := paperStudy(t)
	lo, hi := s.YearRange()
	if lo > 1997 || hi != paperdata.StudyEndYear {
		t.Errorf("year range = [%d, %d]", lo, hi)
	}
}

func TestStudySkipsUnknownProducts(t *testing.T) {
	c, err := corpus.Generate()
	if err != nil {
		t.Fatal(err)
	}
	exotic := &cve.Entry{
		ID:        cve.MustID("CVE-2010-9999"),
		Published: c.Entries[0].Published,
		Summary:   "Buffer overflow in the kernel of an exotic platform.",
		Products:  []cpe.Name{cpe.MustParse("cpe:/o:acme:exotic_rtos:1.0")},
	}
	s := NewStudy(append(append([]*cve.Entry(nil), c.Entries...), exotic))
	if s.skipped != 1 {
		t.Errorf("skipped = %d, want 1 (the exotic-platform entry)", s.skipped)
	}
	if s.ValidEntries() != paperdata.DistinctValid {
		t.Errorf("valid = %d despite skip, want %d", s.ValidEntries(), paperdata.DistinctValid)
	}
}

func TestEmptyStudy(t *testing.T) {
	s := NewStudy(nil)
	if s.ValidEntries() != 0 {
		t.Error("empty study has entries")
	}
	rows, distinct := s.ValidityTable()
	if len(rows) != osmap.NumDistros || distinct.Valid != 0 {
		t.Error("empty study validity table wrong")
	}
	if got := s.Overlap(osmap.MakePair(osmap.Debian, osmap.RedHat), FatServer); got != 0 {
		t.Errorf("empty study overlap = %d", got)
	}
	lo, hi := s.YearRange()
	if lo != 0 || hi != 0 {
		t.Error("empty study year range not zero")
	}
}

func TestProfileStrings(t *testing.T) {
	if FatServer.String() == ThinServer.String() || Profile(0).String() != "Unknown Profile" {
		t.Error("profile names wrong")
	}
	if len(Profiles()) != 3 {
		t.Error("Profiles() wrong length")
	}
}
