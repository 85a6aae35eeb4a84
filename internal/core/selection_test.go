package core

import (
	"testing"

	"osdiversity/internal/osmap"
	"osdiversity/internal/paperdata"
)

func historyWindow() SelectionWindow {
	return SelectionWindow{ToYear: paperdata.HistoryEndYear}
}

func TestPairSharedInWindowMatchesTableV(t *testing.T) {
	s := paperStudy(t)
	for p, want := range paperdata.PeriodTable {
		hist := s.PairSharedInWindow(p, historyWindow())
		obs := s.PairSharedInWindow(p, SelectionWindow{FromYear: paperdata.HistoryEndYear + 1})
		if hist != want.History || obs != want.Observed {
			t.Errorf("%v: window counts %d/%d, Table V %d/%d", p, hist, obs, want.History, want.Observed)
		}
	}
}

func TestFigure3Configurations(t *testing.T) {
	s := paperStudy(t)
	for _, set := range paperdata.Figure3Sets {
		want := paperdata.Figure3Expected[set.Name]
		hist, obs := s.EvaluateConfiguration(set.Members, paperdata.HistoryEndYear)
		if hist != want.History || obs != want.Observed {
			t.Errorf("%s: evaluated %d/%d, derived-from-Table-V %d/%d",
				set.Name, hist, obs, want.History, want.Observed)
		}
	}
}

func TestOnePerFamilySelectionFindsPaperSets(t *testing.T) {
	// Under the one-OS-per-family constraint, the paper's Set1 must be
	// optimal on history data, and Set2/Set3 must appear in the top
	// ranks (Set2 ties with two other cost-13 sets; Set3 follows at 14).
	s := paperStudy(t)
	ranked := s.RankReplicaSets(osmap.HistoryEligible(), 4, OnePerFamily, historyWindow())
	if len(ranked) != 12 {
		t.Fatalf("one-per-family ranking has %d sets, want 2*1*2*3=12", len(ranked))
	}
	set1 := paperdata.Figure3Sets[1].Members
	if !sameSet(ranked[0].Members, set1) {
		t.Errorf("best set = %v (cost %d), paper's Set1 = %v", ranked[0].Members, ranked[0].Cost, set1)
	}
	if ranked[0].Cost != 10 {
		t.Errorf("Set1 history cost = %d, Table V arithmetic gives 10", ranked[0].Cost)
	}
	costs := map[string]int{}
	for _, r := range ranked {
		costs[setKey(r.Members)] = r.Cost
	}
	if costs[setKey(paperdata.Figure3Sets[2].Members)] != 13 {
		t.Errorf("Set2 cost = %d, want 13", costs[setKey(paperdata.Figure3Sets[2].Members)])
	}
	if costs[setKey(paperdata.Figure3Sets[3].Members)] != 14 {
		t.Errorf("Set3 cost = %d, want 14", costs[setKey(paperdata.Figure3Sets[3].Members)])
	}
}

func TestUnconstrainedSelectionBeatsSet2(t *testing.T) {
	// A known delta from the paper: exhaustive search finds
	// {Windows2003, Debian, OpenBSD, NetBSD} at cost 12, better than the
	// paper's Set2 (13). The pipeline must reproduce that finding.
	s := paperStudy(t)
	ranked := s.RankReplicaSets(osmap.HistoryEligible(), 4, MinPairSum, historyWindow())
	if len(ranked) != 70 {
		t.Fatalf("ranking has %d sets, want C(8,4)=70", len(ranked))
	}
	if ranked[0].Cost != 10 || !sameSet(ranked[0].Members, paperdata.Figure3Sets[1].Members) {
		t.Errorf("unconstrained best = %v cost %d, want Set1 at 10", ranked[0].Members, ranked[0].Cost)
	}
	second := ranked[1]
	want := []osmap.Distro{osmap.OpenBSD, osmap.NetBSD, osmap.Debian, osmap.Windows2003}
	if second.Cost != 12 || !sameSet(second.Members, want) {
		t.Errorf("second best = %v cost %d, want %v at 12", second.Members, second.Cost, want)
	}
}

func TestHomogeneousBaseline(t *testing.T) {
	// §IV-C base case: four identical Debian replicas share every Debian
	// vulnerability — 16 in the history period, 9 observed.
	s := paperStudy(t)
	hist, obs := s.EvaluateConfiguration([]osmap.Distro{osmap.Debian}, paperdata.HistoryEndYear)
	want := paperdata.Figure3Expected["Debian"]
	if hist != want.History || obs != want.Observed {
		t.Errorf("Debian baseline = %d/%d, paper %d/%d", hist, obs, want.History, want.Observed)
	}
	// Debian must be the best homogeneous choice on history data.
	for _, d := range osmap.HistoryEligible() {
		h, _ := s.EvaluateConfiguration([]osmap.Distro{d}, paperdata.HistoryEndYear)
		if h < hist {
			t.Errorf("%v homogeneous history cost %d beats Debian's %d", d, h, hist)
		}
	}
}

func TestMaxDisjointGroup(t *testing.T) {
	// §IV-C closes by exhibiting a six-OS group with few pairwise
	// overlaps: {OpenBSD, NetBSD, Windows2003, Debian, RedHat, Solaris}.
	// Its worst pair (OpenBSD-NetBSD) shares 16, and FreeBSD (32 shared
	// with OpenBSD) cannot belong to it.
	s := paperStudy(t)
	group := []osmap.Distro{osmap.OpenBSD, osmap.NetBSD, osmap.Windows2003, osmap.Debian, osmap.RedHat, osmap.Solaris}
	worst := 0
	for _, p := range osmap.PairsOf(group) {
		worst = max(worst, s.PairSharedInWindow(p, SelectionWindow{}))
	}
	if worst != 16 {
		t.Errorf("six-OS group's worst pair shares %d, paper says 16", worst)
	}
	if got := s.PairSharedInWindow(osmap.MakePair(osmap.OpenBSD, osmap.FreeBSD), SelectionWindow{}); got != 32 {
		t.Errorf("OpenBSD-FreeBSD shares %d, paper says 32", got)
	}
	// Every BSD pair shares remotely exploitable vulnerabilities, so no
	// fully disjoint group holds two BSDs.
	for _, p := range osmap.PairsOf([]osmap.Distro{osmap.OpenBSD, osmap.NetBSD, osmap.FreeBSD}) {
		if s.PairSharedInWindow(p, SelectionWindow{}) == 0 {
			t.Errorf("%v shares nothing", p)
		}
	}
}

func TestRankReplicaSetsDeterministic(t *testing.T) {
	s := paperStudy(t)
	a := s.RankReplicaSets(osmap.HistoryEligible(), 3, MinPairSum, historyWindow())
	b := s.RankReplicaSets(osmap.HistoryEligible(), 3, MinPairSum, historyWindow())
	if len(a) != len(b) {
		t.Fatal("ranking size unstable")
	}
	for i := range a {
		if a[i].Cost != b[i].Cost || !sameSet(a[i].Members, b[i].Members) {
			t.Fatalf("ranking unstable at %d", i)
		}
	}
}

func TestSelectionWindowBounds(t *testing.T) {
	w := SelectionWindow{FromYear: 2000, ToYear: 2005}
	if w.Contains(1999) || !w.Contains(2000) || !w.Contains(2005) || w.Contains(2006) {
		t.Error("window bounds wrong")
	}
	var unbounded SelectionWindow
	if !unbounded.Contains(1994) || !unbounded.Contains(2010) {
		t.Error("unbounded window wrong")
	}
}

func sameSet(a, b []osmap.Distro) bool {
	if len(a) != len(b) {
		return false
	}
	m := make(map[osmap.Distro]bool, len(a))
	for _, d := range a {
		m[d] = true
	}
	for _, d := range b {
		if !m[d] {
			return false
		}
	}
	return true
}

func setKey(ds []osmap.Distro) string {
	return RankedSet{Members: sortedCopy(ds)}.String()
}

func sortedCopy(ds []osmap.Distro) []osmap.Distro {
	out := append([]osmap.Distro(nil), ds...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
