package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// identityStudies returns the calibrated corpus's studies at one and
// four workers: the worker-count identity tests below compare them
// directly, beside the oracle suite in bitset_test.go.
func identityStudies(t *testing.T) (serial, parallel *Study) {
	t.Helper()
	c := identityFor(t, "calibrated")
	return c.studies[0], c.studies[1]
}

func TestParallelIngestionIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	if serial.ValidEntries() != parallel.ValidEntries() {
		t.Fatalf("valid: serial %d, parallel %d", serial.ValidEntries(), parallel.ValidEntries())
	}
	if serial.SkippedEntries() != parallel.SkippedEntries() {
		t.Fatalf("skipped: serial %d, parallel %d", serial.SkippedEntries(), parallel.SkippedEntries())
	}
	if len(serial.invalid) != len(parallel.invalid) {
		t.Fatalf("invalid: serial %d, parallel %d", len(serial.invalid), len(parallel.invalid))
	}
	for i := range serial.records {
		a, b := &serial.records[i], &parallel.records[i]
		if a.id != b.id || !a.mask.Equal(b.mask) || a.class != b.class ||
			a.remote != b.remote || a.year != b.year || a.products != b.products {
			t.Fatalf("record %d differs: %+v vs %+v", i, a, b)
		}
	}
}

func TestParallelValidityTableIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	sr, sd := serial.ValidityTable()
	pr, pd := parallel.ValidityTable()
	if !reflect.DeepEqual(sr, pr) || sd != pd {
		t.Fatalf("ValidityTable differs:\nserial   %v %v\nparallel %v %v", sr, sd, pr, pd)
	}
}

func TestParallelClassTableIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	sr, ss := serial.ClassTable()
	pr, ps := parallel.ClassTable()
	if !reflect.DeepEqual(sr, pr) || ss != ps {
		t.Fatalf("ClassTable differs:\nserial   %v %v\nparallel %v %v", sr, ss, pr, ps)
	}
}

func TestParallelPairMatrixIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	for _, profile := range Profiles() {
		sm := serial.PairMatrix(profile)
		pm := parallel.PairMatrix(profile)
		if !reflect.DeepEqual(sm, pm) {
			t.Fatalf("PairMatrix(%v) differs", profile)
		}
		for _, d := range osmap.Distros() {
			if serial.Total(d, profile) != parallel.Total(d, profile) {
				t.Fatalf("Total(%v, %v) differs", d, profile)
			}
		}
	}
}

func TestParallelPartAndPeriodIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	for _, p := range osmap.AllPairs() {
		if serial.PartBreakdown(p) != parallel.PartBreakdown(p) {
			t.Fatalf("PartBreakdown(%v) differs", p)
		}
		for _, year := range []int{2000, 2005} {
			if serial.PeriodSplit(p, year) != parallel.PeriodSplit(p, year) {
				t.Fatalf("PeriodSplit(%v, %d) differs", p, year)
			}
		}
	}
}

func TestParallelTemporalAndKWiseIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	for _, d := range osmap.Distros() {
		if !reflect.DeepEqual(serial.TemporalSeries(d), parallel.TemporalSeries(d)) {
			t.Fatalf("TemporalSeries(%v) differs", d)
		}
	}
	for _, profile := range Profiles() {
		if !reflect.DeepEqual(serial.KWiseClusters(profile), parallel.KWiseClusters(profile)) {
			t.Fatalf("KWiseClusters(%v) differs", profile)
		}
		if !reflect.DeepEqual(serial.KWiseProducts(profile), parallel.KWiseProducts(profile)) {
			t.Fatalf("KWiseProducts(%v) differs", profile)
		}
	}
}

func TestParallelSelectionIdentical(t *testing.T) {
	serial, parallel := identityStudies(t)
	window := SelectionWindow{ToYear: 2005}
	sr := serial.RankReplicaSets(osmap.HistoryEligible(), 4, OnePerFamily, window)
	pr := parallel.RankReplicaSets(osmap.HistoryEligible(), 4, OnePerFamily, window)
	if !reflect.DeepEqual(sr, pr) {
		t.Fatalf("RankReplicaSets differs:\nserial   %v\nparallel %v", sr, pr)
	}
	for _, members := range [][]osmap.Distro{
		{osmap.Debian},
		{osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD},
	} {
		sh, so := serial.EvaluateConfiguration(members, 2005)
		ph, po := parallel.EvaluateConfiguration(members, 2005)
		if sh != ph || so != po {
			t.Fatalf("EvaluateConfiguration(%v) differs: %d/%d vs %d/%d", members, sh, so, ph, po)
		}
	}
	if serial.FilterReduction(FatServer, IsolatedThinServer) != parallel.FilterReduction(FatServer, IsolatedThinServer) {
		t.Fatal("FilterReduction differs")
	}
}

// TestCacheMemoizesAndClears exercises the sync.Once-style result cache:
// repeated queries return equal tables, mutating a returned table does
// not poison the cache, and ClearCache forces a fresh computation.
func TestCacheMemoizesAndClears(t *testing.T) {
	_, parallel := identityStudies(t)
	m1 := parallel.PairMatrix(FatServer)
	first := osmap.AllPairs()[0]
	want := m1[first]
	m1[first] = -1
	if got := parallel.PairMatrix(FatServer)[first]; got != want {
		t.Fatalf("cached PairMatrix poisoned by caller mutation: got %d, want %d", got, want)
	}
	s1 := parallel.TemporalSeries(osmap.Debian)
	s1[1999] = -1
	if got := parallel.TemporalSeries(osmap.Debian)[1999]; got == -1 {
		t.Fatal("cached TemporalSeries poisoned by caller mutation")
	}
	parallel.ClearCache()
	if got := parallel.PairMatrix(FatServer)[first]; got != want {
		t.Fatalf("PairMatrix after ClearCache: got %d, want %d", got, want)
	}
}

// TestConcurrentQueries hammers one Study from many goroutines; run with
// -race this verifies the single-flight cache and the shard workers.
func TestConcurrentQueries(t *testing.T) {
	_, parallel := identityStudies(t)
	parallel.ClearCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, profile := range Profiles() {
				parallel.PairMatrix(profile)
				parallel.KWiseClusters(profile)
			}
			parallel.ValidityTable()
			parallel.ClassTable()
			parallel.TemporalSeries(osmap.Debian)
			parallel.RankReplicaSets(osmap.HistoryEligible(), 3, MinPairSum, SelectionWindow{ToYear: 2005})
		}()
	}
	wg.Wait()
}

// TestParallelClassTableSkipsUnclassified guards the regression where
// the parallel ClassTable counted ClassUnclassified records in the
// Application column: entries whose summaries match no classifier rule
// must be excluded from Table II at any worker count, as the seed did.
func TestParallelClassTableSkipsUnclassified(t *testing.T) {
	entries := make([]*cve.Entry, 0, 2*minParallelItems)
	for i := 0; i < 2*minParallelItems; i++ {
		entries = append(entries, &cve.Entry{
			ID:        cve.ID{Year: 2005, Seq: i + 1},
			Published: time.Date(2005, 6, 1, 12, 0, 0, 0, time.UTC),
			Summary:   "An issue was discovered on the platform.", // matches no rule
			Products:  []cpe.Name{cpe.MustParse("cpe:/o:openbsd:openbsd:4.0")},
		})
	}
	serial := NewStudy(entries)
	parallel := NewStudy(entries, WithParallelism(4))
	sr, ss := serial.ClassTable()
	pr, ps := parallel.ClassTable()
	if !reflect.DeepEqual(sr, pr) || ss != ps {
		t.Fatalf("unclassified ClassTable differs:\nserial   %v %v\nparallel %v %v", sr, ss, pr, ps)
	}
	for _, row := range sr {
		if row.Total() != 0 {
			t.Fatalf("unclassified entries leaked into Table II: %+v", row)
		}
	}
}

func TestWithParallelismNormalization(t *testing.T) {
	s := NewStudy(nil, WithParallelism(0))
	if s.Parallelism() < 1 {
		t.Fatalf("Parallelism() = %d after WithParallelism(0)", s.Parallelism())
	}
	s.SetParallelism(3)
	if s.Parallelism() != 3 {
		t.Fatalf("Parallelism() = %d after SetParallelism(3)", s.Parallelism())
	}
}
