package paperdata

import (
	"testing"

	"osdiversity/internal/osmap"
)

// The tests below verify the transcription's internal consistency — the
// same identities the paper's own tables must satisfy. They double as
// machine-checked evidence that the transcription has no typos.

func TestClassRowsSumToValidCounts(t *testing.T) {
	for _, d := range osmap.Distros() {
		row, ok := ClassTable[d]
		if !ok {
			t.Fatalf("ClassTable missing %v", d)
		}
		if sum := row.Driver + row.Kernel + row.SysSoft + row.App; sum != ValidCounts[d] {
			t.Errorf("%v: Table II row sums to %d, Table I says %d", d, sum, ValidCounts[d])
		}
	}
}

func TestClassSharesAreDistinctBased(t *testing.T) {
	// The percentage row of Table II cannot be reproduced from the
	// per-OS incidence counts (they give 1.1/33.9/23.2/41.7); it is a
	// distinct-vulnerability statement. Check it sums to ~100% and that
	// the implied distinct counts fit within the incidence counts.
	var sum float64
	for _, s := range ClassSharesDistinct {
		sum += s
	}
	if sum < 99.5 || sum > 100.5 {
		t.Errorf("ClassSharesDistinct sums to %.1f%%", sum)
	}
	var incidences [4]int
	for _, row := range ClassTable {
		incidences[0] += row.Driver
		incidences[1] += row.Kernel
		incidences[2] += row.SysSoft
		incidences[3] += row.App
	}
	for i, share := range ClassSharesDistinct {
		implied := int(share / 100 * DistinctValid)
		if implied > incidences[i] {
			t.Errorf("class %d: implied distinct count %d exceeds incidences %d", i, implied, incidences[i])
		}
	}
}

func TestPairTableComplete(t *testing.T) {
	if len(PairTable) != 55 {
		t.Fatalf("PairTable has %d pairs, want 55", len(PairTable))
	}
	for _, p := range osmap.AllPairs() {
		if _, ok := PairTable[p]; !ok {
			t.Errorf("PairTable missing %v", p)
		}
	}
}

func TestPairFiltersNest(t *testing.T) {
	for p, c := range PairTable {
		if !(c.All >= c.NoApp && c.NoApp >= c.Remote && c.Remote >= 0) {
			t.Errorf("%v: filters do not nest: %+v", p, c)
		}
	}
}

func TestPairCountsRespectPerOSTotals(t *testing.T) {
	// v(AB) can never exceed min(v(A), v(B)) under any filter.
	for p, c := range PairTable {
		if c.All > min(ValidCounts[p.A], ValidCounts[p.B]) {
			t.Errorf("%v: All=%d exceeds per-OS totals", p, c.All)
		}
		noAppA, noAppB := ClassTable[p.A].NonApp(), ClassTable[p.B].NonApp()
		if c.NoApp > min(noAppA, noAppB) {
			t.Errorf("%v: NoApp=%d exceeds per-OS thin totals (%d, %d)", p, c.NoApp, noAppA, noAppB)
		}
		if c.Remote > min(RemoteTotals[p.A], RemoteTotals[p.B]) {
			t.Errorf("%v: Remote=%d exceeds per-OS remote totals", p, c.Remote)
		}
	}
}

func TestNoAppTotalsMatchClassTable(t *testing.T) {
	// Table III's NoApp v(A) column equals Table II's Total − App.
	want := map[osmap.Distro]int{
		osmap.OpenBSD: 110, osmap.NetBSD: 100, osmap.FreeBSD: 205,
		osmap.OpenSolaris: 24, osmap.Solaris: 272, osmap.Debian: 59,
		osmap.Ubuntu: 32, osmap.RedHat: 187, osmap.Windows2000: 278,
		osmap.Windows2003: 167, osmap.Windows2008: 56,
	}
	for d, w := range want {
		if got := ClassTable[d].NonApp(); got != w {
			t.Errorf("%v: NonApp = %d, Table III prints %d", d, got, w)
		}
	}
}

func TestPartTableSumsToRemote(t *testing.T) {
	// Every Table IV row total equals the pair's Remote count, and every
	// pair with a non-zero Remote count appears in Table IV.
	for p, parts := range PartTable {
		if sum := parts.Driver + parts.Kernel + parts.SysSoft; sum != PairTable[p].Remote {
			t.Errorf("%v: Table IV sums to %d, Table III remote is %d", p, sum, PairTable[p].Remote)
		}
	}
	for p, c := range PairTable {
		if c.Remote > 0 {
			if _, ok := PartTable[p]; !ok {
				t.Errorf("%v has remote overlap %d but no Table IV row", p, c.Remote)
			}
		}
	}
	if len(PartTable) != 34 {
		t.Errorf("PartTable has %d rows, the paper prints 34", len(PartTable))
	}
}

func TestPeriodTableSumsToRemote(t *testing.T) {
	// Table V is a temporal split of Table III's remote column: for all
	// 28 pairs over the 8 eligible OSes, history + observed = remote.
	elig := osmap.HistoryEligible()
	pairs := osmap.PairsOf(elig)
	if len(pairs) != 28 || len(PeriodTable) != 28 {
		t.Fatalf("period pairs: %d in osmap, %d in table, want 28", len(pairs), len(PeriodTable))
	}
	for _, p := range pairs {
		pc, ok := PeriodTable[p]
		if !ok {
			t.Errorf("PeriodTable missing %v", p)
			continue
		}
		if pc.History+pc.Observed != PairTable[p].Remote {
			t.Errorf("%v: history %d + observed %d != remote %d", p, pc.History, pc.Observed, PairTable[p].Remote)
		}
	}
}

func TestInvalidColumnsReconcile(t *testing.T) {
	// Per-column incidences minus the share plans must leave
	// non-negative singles, and shares+singles must hit the distinct
	// totals.
	check := func(name string, col func(InvalidTotals) int, shares []InvalidSharePlan, distinct int) {
		incidences := 0
		for _, d := range osmap.Distros() {
			incidences += col(InvalidCounts[d])
		}
		shareIncidences, shareDistinct := 0, 0
		consumed := map[osmap.Distro]int{}
		for _, s := range shares {
			shareDistinct += s.Count
			shareIncidences += s.Count * len(s.Members)
			for _, m := range s.Members {
				consumed[m] += s.Count
			}
		}
		for _, d := range osmap.Distros() {
			if consumed[d] > col(InvalidCounts[d]) {
				t.Errorf("%s: share plan over-consumes %v (%d > %d)", name, d, consumed[d], col(InvalidCounts[d]))
			}
		}
		singles := incidences - shareIncidences
		if got := shareDistinct + singles; got != distinct {
			t.Errorf("%s: plan yields %d distinct entries, Table I prints %d", name, got, distinct)
		}
	}
	check("Unknown", func(i InvalidTotals) int { return i.Unknown }, UnknownShares, DistinctInvalid.Unknown)
	check("Unspecified", func(i InvalidTotals) int { return i.Unspecified }, UnspecifiedShares, DistinctInvalid.Unspecified)
	check("Disputed", func(i InvalidTotals) int { return i.Disputed }, DisputedShares, DistinctInvalid.Disputed)
}

func TestCollectedTotalMatches(t *testing.T) {
	got := DistinctValid + DistinctInvalid.Unknown + DistinctInvalid.Unspecified + DistinctInvalid.Disputed
	if got != TotalCollected {
		t.Errorf("valid+invalid distinct = %d, paper collected %d", got, TotalCollected)
	}
}

func TestSpecialCVEFootprintsRespectBudgets(t *testing.T) {
	// Every pair of clusters inside a special CVE consumes one unit of
	// that pair's Kernel (Table IV) and Observed (Table V) budgets; the
	// combined consumption must fit.
	kernelUsed := map[osmap.Pair]int{}
	observedUsed := map[osmap.Pair]int{}
	for _, s := range SpecialCVEs {
		if s.Year < 2006 || s.Year > 2010 {
			t.Errorf("%s: year %d outside the observed period", s.ID, s.Year)
		}
		for _, p := range osmap.PairsOf(s.Clusters) {
			kernelUsed[p]++
			observedUsed[p]++
		}
	}
	for p, used := range kernelUsed {
		if cap := PartTable[p].Kernel; used > cap {
			t.Errorf("specials use %d kernel slots of pair %v, Table IV allows %d", used, p, cap)
		}
	}
	for p, used := range observedUsed {
		if cap := PeriodTable[p].Observed; used > cap {
			t.Errorf("specials use %d observed slots of pair %v, Table V allows %d", used, p, cap)
		}
	}
}

func TestSpecialCVEProductCounts(t *testing.T) {
	wantProducts := map[string]int{
		"CVE-2007-5365": 6,
		"CVE-2008-1447": 6,
		"CVE-2008-4609": 9,
	}
	for _, s := range SpecialCVEs {
		got := len(s.Clusters) + len(s.ExtraProducts)
		if got != wantProducts[s.ID] {
			t.Errorf("%s affects %d products, paper says %d", s.ID, got, wantProducts[s.ID])
		}
	}
}

func TestFigure3ExpectedDerivesFromPeriodTable(t *testing.T) {
	for _, set := range Figure3Sets {
		want := Figure3Expected[set.Name]
		if set.Name == "Debian" {
			// Four identical replicas: every Debian remote vulnerability
			// is shared by all of them. Sum Table V... not applicable;
			// the bar is Debian's remote total split by period. The
			// split (16/9) is a paper-text figure; just check the total.
			if sum := want.History + want.Observed; sum != RemoteTotals[osmap.Debian] {
				t.Errorf("Debian bar total %d != remote total %d", sum, RemoteTotals[osmap.Debian])
			}
			continue
		}
		var hist, obs int
		for _, p := range osmap.PairsOf(set.Members) {
			pc := PeriodTable[p]
			hist += pc.History
			obs += pc.Observed
		}
		if hist != want.History || obs != want.Observed {
			t.Errorf("%s: Table V pair sums = %d/%d, Figure3Expected says %d/%d",
				set.Name, hist, obs, want.History, want.Observed)
		}
	}
}

func TestYearWeightsRespectFirstRelease(t *testing.T) {
	for d, weights := range YearWeights {
		if len(weights) == 0 {
			t.Errorf("%v has no year weights", d)
			continue
		}
		for _, yw := range weights {
			if yw.Year < StudyStartYear || yw.Year > StudyEndYear {
				t.Errorf("%v: weight year %d outside study range", d, yw.Year)
			}
			if yw.Weight <= 0 {
				t.Errorf("%v: non-positive weight at %d", d, yw.Year)
			}
			// Windows 2000 deliberately has pre-release weight (the
			// paper found 7 such entries, shared with NT).
			if d != osmap.Windows2000 && yw.Year < d.FirstReleaseYear() {
				t.Errorf("%v: weight at %d precedes first release %d", d, yw.Year, d.FirstReleaseYear())
			}
		}
	}
	for _, d := range osmap.Distros() {
		if _, ok := YearWeights[d]; !ok {
			t.Errorf("YearWeights missing %v", d)
		}
	}
}

func TestReleaseTableCells(t *testing.T) {
	if len(ReleaseTable) != 15 {
		t.Errorf("ReleaseTable has %d cells, Table VI prints 15", len(ReleaseTable))
	}
	nonZero := 0
	for k, v := range ReleaseTable {
		if v < 0 {
			t.Errorf("negative cell %v", k)
		}
		if v > 0 {
			nonZero++
		}
	}
	if nonZero != 4 {
		t.Errorf("ReleaseTable has %d non-zero cells, Table VI prints 4", nonZero)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
