package bft

// Recovery-path coverage: one replica rejuvenated mid-run and view
// changes under a Silent primary, pinning that the quorum re-forms
// deterministically after rejuvenation (Config.Seed fixes every latency
// draw, so these runs replay identically).

import (
	"testing"

	"osdiversity/internal/osmap"
)

// rejuvenate restores one replica from a clean image of its OS, keeping
// its view, as Rotate does for every replica at a rotation boundary (the
// proactive recovery of Castro & Liskov's PBFT-PR, the paper's [3]).
func rejuvenate(c *Cluster, id NodeID) {
	fresh := newReplica(id, c.replicas[id].os)
	fresh.view = c.replicas[id].view
	c.replicas[id] = fresh
}

// compromised counts the non-honest replicas.
func compromised(c *Cluster) int {
	n := 0
	for _, r := range c.replicas {
		if r.behavior != Honest {
			n++
		}
	}
	return n
}

// TestRejuvenationMidRun stalls a cluster with two Silent backups (only
// 2f honest replicas — no prepare quorum), rejuvenates one midway
// through the run, and pins that the pending request then commits via
// a view change onto the recovered replica.
func TestRejuvenationMidRun(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.CompromiseByOS(osmap.Solaris, Silent) // replica 1
	c.CompromiseByOS(osmap.Debian, Silent)  // replica 2
	seq := c.Submit("op")

	// Run past the first client timeout: with only replicas 0 and 3
	// honest, the view-change vote count stays below 2f+1 and nothing
	// commits.
	c.Run(30)
	if got := c.accepted[seq]; got != "" {
		t.Fatalf("request committed without a quorum: %q", got)
	}

	// Rejuvenate the Solaris replica mid-run: three honest replicas
	// again. The next timeout round gathers 2f+1 view-change votes,
	// the recovered replica is the new primary, and the request
	// commits.
	rejuvenate(c, 1)
	if compromised(c) != 1 {
		t.Fatalf("compromised after recovery = %d, want 1", compromised(c))
	}
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("post-recovery request = %q, want ok:d(op)", got)
	}
	if c.delivered != 1 {
		t.Fatalf("delivered = %d, want 1", c.delivered)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations after quorum re-formation: %v", v)
	}
}

// TestViewChangeUnderSilentPrimary pins the hardest recovery path: the
// primary itself is Silent and so is the view-change successor, which
// blocks the protocol entirely until the successor rejuvenates.
func TestViewChangeUnderSilentPrimary(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.CompromiseByOS(osmap.Windows2003, Silent) // replica 0, the view-0 primary
	c.CompromiseByOS(osmap.Solaris, Silent)     // replica 1, primary of view 1
	seq := c.Submit("op")

	// Two honest replicas can never gather 2f+1 view-change votes: the
	// first timeout round passes without progress.
	c.Run(30)
	if got := c.accepted[seq]; got != "" {
		t.Fatalf("request committed under a silent primary pair: %q", got)
	}

	// Rejuvenating replica 1 restores a 2f+1 honest quorum while
	// timeout rounds are still pending; the next round's view change
	// installs an honest primary and the pending request is re-proposed
	// and committed — with the original primary still Silent.
	rejuvenate(c, 1)
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("post-view-change request = %q, want ok:d(op)", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations after view change onto recovered primary: %v", v)
	}
	if compromised(c) != 1 {
		t.Fatalf("compromised = %d, want 1 (the old primary stays Silent)", compromised(c))
	}
}

// TestRotate pins the rotation boundary: every replica rejuvenates
// onto its new OS, compromises do not survive the boundary, and the
// cluster commits on the new assignment.
func TestRotate(t *testing.T) {
	c := newTestCluster(t, set1OSes())
	c.replicas[2].behavior = ForgeReplies
	next := []osmap.Distro{osmap.NetBSD, osmap.FreeBSD, osmap.RedHat, osmap.Windows2000}
	if err := c.Rotate(next); err != nil {
		t.Fatal(err)
	}
	for i, r := range c.replicas {
		if r.os != next[i] {
			t.Fatalf("replica %d runs %v after rotate, want %v", i, r.os, next[i])
		}
	}
	if compromised(c) != 0 {
		t.Fatal("compromise survived the rotation boundary")
	}
	seq := c.Submit("op")
	c.Run(10000)
	if got := c.accepted[seq]; got != "ok:d(op)" {
		t.Fatalf("post-rotation request = %q", got)
	}
	if v := c.SafetyReport(); len(v) != 0 {
		t.Fatalf("violations after rotation: %v", v)
	}
	if err := c.Rotate([]osmap.Distro{osmap.Debian}); err == nil {
		t.Error("Rotate accepted a short OS list")
	}
}
