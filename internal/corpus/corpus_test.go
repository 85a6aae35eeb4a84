package corpus

import (
	"slices"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
)

// generateOnce caches the corpus across tests (generation is pure).
var testCorpus *Corpus

func corpusForTest(t *testing.T) *Corpus {
	t.Helper()
	if testCorpus == nil {
		c, err := Generate()
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		testCorpus = c
	}
	return testCorpus
}

// clustersOf maps an entry to its affected distributions using the
// registry, the same way the analysis pipeline does.
func clustersOf(e *cve.Entry) map[osmap.Distro]bool {
	out := make(map[osmap.Distro]bool)
	for _, p := range e.Products {
		if d, ok := registry.Cluster(p); ok {
			out[d] = true
		}
	}
	return out
}

func TestGenerateIsClean(t *testing.T) {
	c := corpusForTest(t)
	for _, p := range c.Problems {
		t.Errorf("calibration problem: %s", p)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != len(b.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(a.Entries), len(b.Entries))
	}
	for i := range a.Entries {
		if a.Entries[i].ID != b.Entries[i].ID || a.Entries[i].Summary != b.Entries[i].Summary {
			t.Fatalf("entry %d differs between runs", i)
		}
		if len(a.Entries[i].Products) != len(b.Entries[i].Products) {
			t.Fatalf("entry %d products differ between runs", i)
		}
	}
}

func TestEntriesAreValidAndUnique(t *testing.T) {
	c := corpusForTest(t)
	seen := make(map[cve.ID]bool, len(c.Entries))
	for _, e := range c.Entries {
		if err := e.Validate(); err != nil {
			t.Fatalf("invalid entry: %v", err)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate ID %v", e.ID)
		}
		seen[e.ID] = true
	}
}

func TestTableI(t *testing.T) {
	c := corpusForTest(t)
	valid := make(map[osmap.Distro]int)
	invalid := make(map[osmap.Distro]*paperdata.InvalidTotals)
	for _, d := range osmap.Distros() {
		invalid[d] = &paperdata.InvalidTotals{}
	}
	distinctValid, distinctUnknown, distinctUnspec, distinctDisputed := 0, 0, 0, 0
	for _, e := range c.Entries {
		ds := clustersOf(e)
		switch classify.EntryValidity(e) {
		case classify.Valid:
			distinctValid++
			for d := range ds {
				valid[d]++
			}
		case classify.Unknown:
			distinctUnknown++
			for d := range ds {
				invalid[d].Unknown++
			}
		case classify.Unspecified:
			distinctUnspec++
			for d := range ds {
				invalid[d].Unspecified++
			}
		case classify.Disputed:
			distinctDisputed++
			for d := range ds {
				invalid[d].Disputed++
			}
		}
	}
	for _, d := range osmap.Distros() {
		if valid[d] != paperdata.ValidCounts[d] {
			t.Errorf("%v: valid = %d, paper %d", d, valid[d], paperdata.ValidCounts[d])
		}
		want := paperdata.InvalidCounts[d]
		if *invalid[d] != want {
			t.Errorf("%v: invalid = %+v, paper %+v", d, *invalid[d], want)
		}
	}
	if distinctValid != paperdata.DistinctValid {
		t.Errorf("distinct valid = %d, paper %d", distinctValid, paperdata.DistinctValid)
	}
	if distinctUnknown != paperdata.DistinctInvalid.Unknown ||
		distinctUnspec != paperdata.DistinctInvalid.Unspecified ||
		distinctDisputed != paperdata.DistinctInvalid.Disputed {
		t.Errorf("distinct invalid = %d/%d/%d, paper %d/%d/%d",
			distinctUnknown, distinctUnspec, distinctDisputed,
			paperdata.DistinctInvalid.Unknown, paperdata.DistinctInvalid.Unspecified, paperdata.DistinctInvalid.Disputed)
	}
}

func TestTableII(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	got := make(map[osmap.Distro]*paperdata.ClassCounts)
	for _, d := range osmap.Distros() {
		got[d] = &paperdata.ClassCounts{}
	}
	for _, e := range c.Entries {
		if classify.EntryValidity(e) != classify.Valid {
			continue
		}
		class := classifier.Classify(e)
		for d := range clustersOf(e) {
			switch class {
			case classify.ClassDriver:
				got[d].Driver++
			case classify.ClassKernel:
				got[d].Kernel++
			case classify.ClassSysSoft:
				got[d].SysSoft++
			case classify.ClassApplication:
				got[d].App++
			default:
				t.Fatalf("entry %v unclassified: %q", e.ID, e.Summary)
			}
		}
	}
	for _, d := range osmap.Distros() {
		want := paperdata.ClassTable[d]
		if *got[d] != want {
			t.Errorf("%v: classes = %+v, paper %+v", d, *got[d], want)
		}
	}
}

// overlap recomputes one pair's Table III cell from the corpus.
func overlap(c *Corpus, classifier *classify.Classifier, p osmap.Pair) paperdata.PairCounts {
	var out paperdata.PairCounts
	for _, e := range c.Entries {
		if classify.EntryValidity(e) != classify.Valid {
			continue
		}
		ds := clustersOf(e)
		if !ds[p.A] || !ds[p.B] {
			continue
		}
		out.All++
		if classifier.Classify(e) == classify.ClassApplication {
			continue
		}
		out.NoApp++
		if e.Remote() {
			out.Remote++
		}
	}
	return out
}

func TestTableIII(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	for _, p := range osmap.AllPairs() {
		got := overlap(c, classifier, p)
		want := paperdata.PairTable[p]
		if got != want {
			t.Errorf("%v: overlap = %+v, paper %+v", p, got, want)
		}
	}
}

func TestTableIV(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	for _, p := range osmap.AllPairs() {
		var got paperdata.PartCounts
		for _, e := range c.Entries {
			if classify.EntryValidity(e) != classify.Valid || !e.Remote() {
				continue
			}
			ds := clustersOf(e)
			if !ds[p.A] || !ds[p.B] {
				continue
			}
			switch classifier.Classify(e) {
			case classify.ClassDriver:
				got.Driver++
			case classify.ClassKernel:
				got.Kernel++
			case classify.ClassSysSoft:
				got.SysSoft++
			}
		}
		want := paperdata.PartTable[p] // zero value for absent rows
		if got != want {
			t.Errorf("%v: parts = %+v, paper %+v", p, got, want)
		}
	}
}

func TestTableV(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	for p, want := range paperdata.PeriodTable {
		var got paperdata.PeriodCounts
		for _, e := range c.Entries {
			if classify.EntryValidity(e) != classify.Valid || !e.Remote() {
				continue
			}
			if classifier.Classify(e) == classify.ClassApplication {
				continue
			}
			ds := clustersOf(e)
			if !ds[p.A] || !ds[p.B] {
				continue
			}
			if e.Year() <= paperdata.HistoryEndYear {
				got.History++
			} else {
				got.Observed++
			}
		}
		if got != want {
			t.Errorf("%v: periods = %+v, paper %+v", p, got, want)
		}
	}
}

func TestSpecialCVEsPresent(t *testing.T) {
	c := corpusForTest(t)
	for _, s := range paperdata.SpecialCVEs {
		i := slices.IndexFunc(c.Entries, func(e *cve.Entry) bool { return e.ID == cve.MustID(s.ID) })
		if i < 0 {
			t.Fatalf("special CVE %s missing", s.ID)
		}
		e := c.Entries[i]
		wantProducts := len(s.Clusters) + len(s.ExtraProducts)
		if len(e.Products) != wantProducts {
			t.Errorf("%s: %d products, want %d", s.ID, len(e.Products), wantProducts)
		}
		if !e.Remote() {
			t.Errorf("%s must be remote", s.ID)
		}
		if classify.NewClassifier().Classify(e) != classify.ClassKernel {
			t.Errorf("%s must classify as kernel, summary %q", s.ID, e.Summary)
		}
	}
}

func TestKWiseProductTargets(t *testing.T) {
	c := corpusForTest(t)
	atLeast := make(map[int]int)
	exact := make(map[int]int)
	for _, e := range c.Entries {
		if classify.EntryValidity(e) != classify.Valid {
			continue
		}
		// Count distinct products (vendor+product+any version counts
		// once per distinct platform name, as NVD lists them).
		seen := map[string]bool{}
		for _, p := range e.Products {
			seen[p.Vendor+"/"+p.Product] = true
		}
		n := len(seen)
		exact[n]++
		for k := 3; k <= n; k++ {
			atLeast[k]++
		}
	}
	for k, want := range paperdata.KWiseProducts {
		if atLeast[k] != want {
			t.Errorf("products >= %d: got %d, paper %d", k, atLeast[k], want)
		}
	}
	if exact[7] != 0 || exact[8] != 0 {
		t.Errorf("unexpected 7- or 8-product entries: %d, %d", exact[7], exact[8])
	}
}

func TestTableVIReleases(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	// Recompute release-level overlap: a vulnerability affects
	// (distro, version) when it lists that product version.
	studied := map[string]struct {
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
	affects := func(e *cve.Entry, d osmap.Distro, version string) bool {
		for _, p := range e.Products {
			if got, ok := registry.Cluster(p); ok && got == d && p.Version == version {
				return true
			}
		}
		return false
	}
	for cell, want := range paperdata.ReleaseTable {
		a, b := studied[cell.A], studied[cell.B]
		got := 0
		for _, e := range c.Entries {
			if classify.EntryValidity(e) != classify.Valid || !e.Remote() {
				continue
			}
			if classifier.Classify(e) == classify.ClassApplication {
				continue
			}
			if affects(e, a.d, a.v) && affects(e, b.d, b.v) {
				got++
			}
		}
		if got != want {
			t.Errorf("releases %s-%s: got %d, paper %d", cell.A, cell.B, got, want)
		}
	}
}

func TestWindows2000PreRelease(t *testing.T) {
	c := corpusForTest(t)
	n := 0
	for _, e := range c.Entries {
		if classify.EntryValidity(e) != classify.Valid {
			continue
		}
		if e.Year() >= 1999 {
			continue
		}
		if clustersOf(e)[osmap.Windows2000] {
			n++
			if !e.AffectsProduct("microsoft", "windows_nt") {
				t.Errorf("pre-1999 Windows2000 entry %v does not list windows_nt", e.ID)
			}
		}
	}
	if n != paperdata.Windows2000PreReleaseEntries {
		t.Errorf("pre-1999 Windows2000 entries = %d, paper reports %d", n, paperdata.Windows2000PreReleaseEntries)
	}
}

func TestYearsRespectFirstRelease(t *testing.T) {
	c := corpusForTest(t)
	for i, e := range c.Entries {
		s := c.Specs[i]
		if s.PreRelease {
			continue
		}
		for d := range clustersOf(e) {
			if e.Year() < d.FirstReleaseYear() {
				t.Errorf("entry %v year %d precedes %v first release %d", e.ID, e.Year(), d, d.FirstReleaseYear())
			}
		}
		if e.Year() < paperdata.StudyStartYear || e.Year() > paperdata.StudyEndYear {
			t.Errorf("entry %v year %d outside study window", e.ID, e.Year())
		}
	}
}

func TestHistoryShareRoughlyTwoThirds(t *testing.T) {
	c := corpusForTest(t)
	hist, total := 0, 0
	for _, e := range c.Entries {
		if classify.EntryValidity(e) != classify.Valid {
			continue
		}
		total++
		if e.Year() <= paperdata.HistoryEndYear {
			hist++
		}
	}
	share := float64(hist) / float64(total)
	if share < 0.55 || share < 0.0 || share > 0.8 {
		t.Errorf("history share = %.2f, paper says about 2/3", share)
	}
}

func TestSummariesClassifyAsPlanned(t *testing.T) {
	c := corpusForTest(t)
	classifier := classify.NewClassifier()
	for i, e := range c.Entries {
		s := c.Specs[i]
		if s.Validity != classify.Valid {
			if classify.EntryValidity(e) != s.Validity {
				t.Fatalf("entry %v validity = %v, planned %v (summary %q)",
					e.ID, classify.EntryValidity(e), s.Validity, e.Summary)
			}
			continue
		}
		if got := classifier.Classify(e); got != s.Class {
			t.Fatalf("entry %v classified %v, planned %v (summary %q)", e.ID, got, s.Class, e.Summary)
		}
		if e.Remote() != s.Remote {
			t.Fatalf("entry %v remote = %v, planned %v", e.ID, e.Remote(), s.Remote)
		}
	}
}

func TestFilterReductionNearPaper(t *testing.T) {
	// §IV-E(1): Fat → Isolated Thin cuts shared vulnerabilities by 56%
	// on average over the 55 pairs (pairs that start at zero contribute
	// zero reduction).
	var sum float64
	n := 0
	for _, counts := range paperdata.PairTable {
		if counts.All == 0 {
			continue
		}
		sum += float64(counts.All-counts.Remote) / float64(counts.All)
		n++
	}
	avg := 100 * sum / float64(n)
	if avg < float64(paperdata.FilterReductionPct)-8 || avg > float64(paperdata.FilterReductionPct)+8 {
		t.Errorf("average reduction = %.0f%%, paper says %d%%", avg, paperdata.FilterReductionPct)
	}
}
