package attack

import (
	"math"
	"testing"

	"osdiversity/internal/core"
	"osdiversity/internal/corpus"
	"osdiversity/internal/osmap"
)

var studyCache *core.Study

// paperStudy is the calibrated corpus's study, shared by the package's
// tests; a test that changes its worker count restores it.
func paperStudy(t testing.TB) *core.Study {
	t.Helper()
	if studyCache == nil {
		c, err := corpus.Generate()
		if err != nil {
			t.Fatalf("corpus.Generate: %v", err)
		}
		studyCache = core.NewStudy(c.Entries)
	}
	return studyCache
}

func paperModel(t testing.TB) *Model {
	return NewModel(paperStudy(t), core.IsolatedThinServer)
}

func homogeneous(d osmap.Distro) Scenario {
	return Scenario{Name: "homogeneous-" + d.String(), F: 1,
		OSes: []osmap.Distro{d, d, d, d}}
}

func set1() Scenario {
	return Scenario{Name: "set1", F: 1, OSes: []osmap.Distro{
		osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD}}
}

func TestScenarioValidate(t *testing.T) {
	if err := (Scenario{F: 0, OSes: []osmap.Distro{osmap.Debian}}).Validate(); err == nil {
		t.Error("F=0 accepted")
	}
	if err := (Scenario{F: 1, OSes: []osmap.Distro{osmap.Debian}}).Validate(); err == nil {
		t.Error("short OS list accepted")
	}
	if err := set1().Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestModelPopulation(t *testing.T) {
	m := paperModel(t)
	// The ITS population is every remotely exploitable non-application
	// vulnerability; it must be large but smaller than the full corpus.
	if m.VulnCount() < 400 || m.VulnCount() > 1200 {
		t.Errorf("ITS population = %d, implausible", m.VulnCount())
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m := paperModel(t)
	a, err := m.Simulate(set1(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Simulate(set1(), 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c, err := m.Simulate(set1(), 43)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds produced identical runs (suspicious)")
	}
}

func TestHomogeneousFallsToOneExploit(t *testing.T) {
	m := paperModel(t)
	res, err := m.Simulate(homogeneous(osmap.Debian), 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExploitsUsed != 1 {
		t.Errorf("homogeneous cluster took %d exploits, want 1", res.ExploitsUsed)
	}
	if res.FatalExploit != 4 {
		t.Errorf("fatal exploit took %d replicas, want all 4", res.FatalExploit)
	}
}

func TestDiversityGain(t *testing.T) {
	m := paperModel(t)
	gain, err := m.Gain(homogeneous(osmap.Debian), set1(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 1.5 {
		t.Errorf("diversity gain = %.2f, expected well above 1 (the paper's whole point)", gain)
	}
}

func TestDiverseNeedsMultipleExploits(t *testing.T) {
	m := paperModel(t)
	sum, err := m.MonteCarlo(set1(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Unbroken == sum.Trials {
		t.Fatal("diverse set never compromised; model degenerate")
	}
	// Set1's pairwise overlaps are tiny (at most 2 across the full
	// period), so the fatal exploit is rarely shared.
	if sum.SharedFatal > 0.25 {
		t.Errorf("shared-fatal fraction = %.2f, expected rare for Set1", sum.SharedFatal)
	}
	homog, err := m.MonteCarlo(homogeneous(osmap.Debian), 200)
	if err != nil {
		t.Fatal(err)
	}
	if homog.SharedFatal != 1.0 {
		t.Errorf("homogeneous shared-fatal = %.2f, want 1.0", homog.SharedFatal)
	}
	if homog.MeanTTC >= sum.MeanTTC {
		t.Errorf("homogeneous TTC %.3f >= diverse TTC %.3f", homog.MeanTTC, sum.MeanTTC)
	}
}

func TestWorstDiversePairBeatsHomogeneous(t *testing.T) {
	// Even the worst 4-set of the history-eligible OSes (heavy Windows
	// sharing) should outlast a homogeneous deployment on average.
	m := paperModel(t)
	worst := Scenario{Name: "windows-heavy", F: 1, OSes: []osmap.Distro{
		osmap.Windows2000, osmap.Windows2003, osmap.Windows2008, osmap.Solaris}}
	gain, err := m.Gain(homogeneous(osmap.Windows2000), worst, 200)
	if err != nil {
		t.Fatal(err)
	}
	if gain <= 1.0 {
		t.Errorf("windows-heavy gain = %.2f, want > 1", gain)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	m := paperModel(t)
	if _, err := m.MonteCarlo(set1(), 0); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := m.Simulate(Scenario{F: 1, OSes: nil}, 1); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestInfinityWhenNoVulns(t *testing.T) {
	empty := NewModel(core.NewStudy(nil), core.IsolatedThinServer)
	res, err := empty.Simulate(set1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.TimeToCompromise, 1) {
		t.Errorf("empty model TTC = %v, want +Inf", res.TimeToCompromise)
	}
}
