package bft

import (
	"slices"
	"strings"
	"testing"

	"osdiversity/internal/osmap"
)

func set1OSes() []osmap.Distro {
	return []osmap.Distro{osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD}
}

func newTestCluster(t *testing.T, oses []osmap.Distro) *Cluster {
	t.Helper()
	c, err := NewCluster(Config{F: 1, OSes: oses, Seed: 7})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewCluster(Config{F: 0, OSes: []osmap.Distro{osmap.Debian}}); err == nil {
		t.Error("F=0 accepted")
	}
	if _, err := NewCluster(Config{F: 1, OSes: []osmap.Distro{osmap.Debian}}); err == nil {
		t.Error("wrong OS count accepted")
	}
	if _, err := NewCluster(Config{F: 2, OSes: slices.Repeat([]osmap.Distro{osmap.Debian}, 7)}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestHappyPathCommits(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	seq := c.Submit("write x=1")
	c.Run(1000)
	if got := c.accepted[seq]; got != "ok:d(write x=1)" {
		t.Fatalf("accepted = %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("safety violations on happy path: %v", v)
	}
	if c.delivered != 1 {
		t.Fatalf("delivered = %d", c.delivered)
	}
}

func TestManyRequests(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	const n = 25
	for i := 0; i < n; i++ {
		c.Submit("op" + string(rune('a'+i)))
	}
	c.Run(10000)
	if c.delivered != n {
		t.Fatalf("delivered %d of %d", c.delivered, n)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestToleratesSilentBackup(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.replicas[2].behavior = Silent
	seq := c.Submit("op")
	c.Run(1000)
	if c.accepted[seq] == "" {
		t.Fatal("request did not complete with one silent backup")
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestSilentPrimaryTriggersViewChange(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.replicas[0].behavior = Silent // view-0 primary
	seq := c.Submit("op")
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("request lost after primary failure: %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestEquivocatingPrimaryCannotSplit(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.replicas[0].behavior = Equivocate
	seq := c.Submit("op")
	c.Run(10000)
	// The view change must recover the request with an honest primary.
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("accepted = %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("equivocation broke safety with f=1: %v", v)
	}
}

func TestForgingMinorityDetected(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.replicas[3].behavior = ForgeReplies
	seq := c.Submit("op")
	c.Run(1000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("client accepted %q with one forger", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestForgingMajorityBreaksValidity(t *testing.T) {
	// f+1 = 2 forging replicas can hand the client a forged result:
	// exactly the failure mode shared vulnerabilities enable.
	c := newTestCluster(t, set1OSes())
	c.replicas[1].behavior = ForgeReplies
	c.replicas[2].behavior = ForgeReplies
	c.Submit("op")
	c.Run(10000)
	violations := c.SafetyReport()
	found := false
	for _, v := range violations {
		if strings.Contains(v, "validity violation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a validity violation with f+1 forgers, got %v", violations)
	}
}

func TestCompromiseByOS(t *testing.T) {
	// Homogeneous cluster: one OS exploit takes every replica at once.
	c := newTestCluster(t, slices.Repeat([]osmap.Distro{osmap.Debian}, 4))
	n := c.CompromiseByOS(osmap.Debian, ForgeReplies)
	if n != 4 || compromised(c) != 4 {
		t.Fatalf("CompromiseByOS hit %d replicas, want 4", n)
	}
	// Diverse cluster: the same exploit touches only the Debian replica.
	d := newTestCluster(t, set1OSes())
	n = d.CompromiseByOS(osmap.Debian, ForgeReplies)
	if n != 1 || compromised(d) != 1 {
		t.Fatalf("diverse CompromiseByOS hit %d replicas, want 1", n)
	}
	// Re-compromising is idempotent.
	if d.CompromiseByOS(osmap.Debian, Silent) != 0 {
		t.Error("re-compromise affected an already-compromised replica")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (string, int) {
		c := newTestCluster(t, set1OSes())
		c.replicas[0].behavior = Silent
		seq := c.Submit("op")
		c.Run(10000)
		return c.accepted[seq], c.delivered
	}
	a1, d1 := run()
	a2, d2 := run()
	if a1 != a2 || d1 != d2 {
		t.Fatalf("runs differ: (%q,%d) vs (%q,%d)", a1, d1, a2, d2)
	}
}

func TestF2Cluster(t *testing.T) {
	oses := []osmap.Distro{
		osmap.Windows2003, osmap.Solaris, osmap.Debian, osmap.OpenBSD,
		osmap.NetBSD, osmap.RedHat, osmap.FreeBSD,
	}
	c, err := NewCluster(Config{F: 2, OSes: oses, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c.replicas[1].behavior = Silent
	c.replicas[4].behavior = ForgeReplies
	seq := c.Submit("op")
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("f=2 cluster with 2 compromised failed: %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestBehaviorStrings(t *testing.T) {
	for b, want := range map[Behavior]string{
		Honest: "honest", Silent: "silent", Equivocate: "equivocate", ForgeReplies: "forge-replies",
	} {
		if b.String() != want {
			t.Errorf("%d.String() = %q", b, b.String())
		}
	}
}

func TestProactiveRecovery(t *testing.T) {
	// A compromised replica rejuvenates and rejoins the protocol: after
	// recovery the cluster commits with full safety again.
	c := newTestCluster(t, set1OSes())
	c.replicas[1].behavior = ForgeReplies
	c.replicas[2].behavior = ForgeReplies
	rejuvenate(c, 1)
	if compromised(c) != 1 {
		t.Fatalf("compromised after recovery = %d, want 1", compromised(c))
	}
	seq := c.Submit("op")
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("post-recovery request = %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations after recovery: %v", v)
	}
}
