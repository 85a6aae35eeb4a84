package attack

import (
	"reflect"
	"testing"
	"time"

	"osdiversity/internal/core"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
	"osdiversity/internal/osmap"
)

func fourOf(d osmap.Distro) []osmap.Distro {
	return []osmap.Distro{d, d, d, d}
}

// disjointSteps is a two-window schedule sharing no OS across windows.
func disjointSteps() []RotationStep {
	return []RotationStep{
		{OSes: []osmap.Distro{osmap.OpenBSD, osmap.Solaris, osmap.Debian, osmap.Windows2003},
			Window: core.SelectionWindow{ToYear: 2002}},
		{OSes: []osmap.Distro{osmap.NetBSD, osmap.FreeBSD, osmap.RedHat, osmap.Windows2000},
			Window: core.SelectionWindow{FromYear: 2003}},
	}
}

func homogeneousSteps() []RotationStep {
	return []RotationStep{
		{OSes: fourOf(osmap.Debian), Window: core.SelectionWindow{ToYear: 2002}},
		{OSes: fourOf(osmap.Debian), Window: core.SelectionWindow{FromYear: 2003}},
	}
}

func TestRotationValidation(t *testing.T) {
	m := paperModel(t)
	if _, err := m.SimulateRotation(0, disjointSteps(), 2, 1); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := m.SimulateRotation(1, nil, 2, 1); err == nil {
		t.Error("empty schedule accepted")
	}
	if _, err := m.SimulateRotation(2, disjointSteps(), 2, 1); err == nil {
		t.Error("4 replicas accepted for F=2")
	}
	if _, err := m.SimulateRotation(1, disjointSteps(), 0, 1); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := m.RotationSurvival(1, disjointSteps(), 2, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
}

func TestSimulateRotationDeterministic(t *testing.T) {
	m := paperModel(t)
	a, err := m.SimulateRotation(1, disjointSteps(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.SimulateRotation(1, disjointSteps(), 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

// arsenalModel is a hand-built population that pins the rotation
// semantics exactly: Debian and RedHat each have one vulnerability
// disclosed in 2000, Windows2000 one in 2005.
func arsenalModel() *Model {
	vuln := func(id, product string, year int) *cve.Entry {
		return &cve.Entry{
			ID:        cve.MustID(id),
			Published: time.Date(year, 3, 1, 0, 0, 0, 0, time.UTC),
			Summary:   "The TCP implementation allows remote attackers to exhaust connection state.",
			CVSS:      cvss.Vector{AV: cvss.AccessNetwork},
			Products:  []cpe.Name{cpe.MustParse(product)},
		}
	}
	study := core.NewStudy([]*cve.Entry{
		vuln("CVE-2000-0001", "cpe:/o:debian:debian_linux", 2000),
		vuln("CVE-2000-0002", "cpe:/o:redhat:enterprise_linux", 2000),
		vuln("CVE-2005-0001", "cpe:/o:microsoft:windows_2000", 2005),
	})
	return NewModel(study, core.IsolatedThinServer)
}

// TestRotationArsenalPersists pins the core rotation rule: rotation
// redeploys images without patching, so an OS exploited in an earlier
// window falls the instant a later window redeploys it.
func TestRotationArsenalPersists(t *testing.T) {
	m := arsenalModel()
	if m.VulnCount() != 3 {
		t.Fatalf("hand-built population has %d vulnerabilities, want 3", m.VulnCount())
	}
	early := core.SelectionWindow{ToYear: 2002}
	late := core.SelectionWindow{FromYear: 2003}
	// Step 0 only exposes Debian (the one attackable OS in the early
	// window); a huge interval guarantees the campaign lands.
	step0 := RotationStep{OSes: []osmap.Distro{osmap.Debian, osmap.OpenBSD, osmap.Solaris, osmap.FreeBSD}, Window: early}

	// Reusing Debian in step 1 hands the adversary a free replica: the
	// held exploit plus the Windows2000 campaign cross F=1 in step 1.
	reuse := []RotationStep{step0,
		{OSes: []osmap.Distro{osmap.Debian, osmap.OpenBSD, osmap.Solaris, osmap.Windows2000}, Window: late}}
	res, err := m.SimulateRotation(1, reuse, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survived || res.FailedStep != 1 {
		t.Fatalf("reuse schedule: %+v, want failure in step 1", res)
	}

	// A fresh assignment only loses Windows2000 in step 1 and survives.
	fresh := []RotationStep{step0,
		{OSes: []osmap.Distro{osmap.NetBSD, osmap.OpenBSD, osmap.Solaris, osmap.Windows2000}, Window: late}}
	res, err = m.SimulateRotation(1, fresh, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Survived || res.When != 2000 {
		t.Fatalf("fresh schedule: %+v, want survival to horizon 2000", res)
	}

	// Redeploying the exploited OS on more than F replicas fails at the
	// rotation boundary itself, before any step-1 campaign.
	boundary := []RotationStep{step0,
		{OSes: []osmap.Distro{osmap.Debian, osmap.Debian, osmap.Debian, osmap.OpenBSD}, Window: late}}
	res, err = m.SimulateRotation(1, boundary, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Survived || res.FailedStep != 1 || res.When != 1000 || res.Campaigns != 1 {
		t.Fatalf("boundary re-compromise: %+v, want instant failure at t=1000 after 1 campaign", res)
	}
}

// TestDisjointRanksAboveHomogeneous pins the acceptance claim on the
// calibrated corpus: a fully-disjoint rotation schedule survives
// strictly more trials than the homogeneous baseline.
func TestDisjointRanksAboveHomogeneous(t *testing.T) {
	m := paperModel(t)
	disjoint, err := m.RotationSurvival(1, disjointSteps(), 2, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	homog, err := m.RotationSurvival(1, homogeneousSteps(), 2, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if disjoint <= homog {
		t.Fatalf("disjoint survival %v not strictly above homogeneous %v", disjoint, homog)
	}
}

func TestRotationSurvivalWorkerIdentity(t *testing.T) {
	s := paperStudy(t)
	defer s.SetParallelism(1)
	m := paperModel(t)
	s.SetParallelism(1)
	want, err := m.RotationSurvival(1, disjointSteps(), 2, 250, 99)
	if err != nil {
		t.Fatal(err)
	}
	s.SetParallelism(4)
	got, err := m.RotationSurvival(1, disjointSteps(), 2, 250, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("survival at 4 workers = %v, serial = %v", got, want)
	}
}

func TestReplayRotationOnCluster(t *testing.T) {
	m := paperModel(t)
	violations, err := m.ReplayRotationOnCluster(1, disjointSteps(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("disjoint schedule replay violated safety: %v", violations)
	}
	if _, err := m.ReplayRotationOnCluster(0, disjointSteps(), 7); err == nil {
		t.Error("F=0 accepted")
	}
}
