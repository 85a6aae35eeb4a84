// Package bft simulates a PBFT-style intrusion-tolerant replicated
// service — the class of system (BFS, DepSpace) whose replica selection
// the paper's study informs.
//
// The simulation is message-level and discrete-event: replicas exchange
// pre-prepare/prepare/commit messages with deterministic latencies, use
// 2f+1 quorums out of n = 3f+1 replicas, and fall back to a view change
// when the primary stalls or equivocates. Compromised replicas are
// driven by an adversary behavior (silent, equivocating, or forging
// client replies), so experiments can observe exactly the property the
// paper cares about: the service stays correct while at most f replicas
// are compromised and breaks once the adversary holds f+1.
package bft

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"

	"osdiversity/internal/osmap"
)

// NodeID identifies a replica (0..n-1).
type NodeID int

// Behavior is how a compromised replica acts.
type Behavior int

// Adversary behaviors.
const (
	// Honest follows the protocol.
	Honest Behavior = iota
	// Silent drops every message (crash-like).
	Silent
	// Equivocate sends conflicting pre-prepares when primary and
	// conflicting prepares otherwise.
	Equivocate
	// ForgeReplies executes the protocol but returns a corrupted result
	// to the client.
	ForgeReplies
)

// String names the behavior.
func (b Behavior) String() string {
	switch b {
	case Honest:
		return "honest"
	case Silent:
		return "silent"
	case Equivocate:
		return "equivocate"
	case ForgeReplies:
		return "forge-replies"
	default:
		return "unknown"
	}
}

// msgType enumerates protocol messages.
type msgType int

const (
	msgPrePrepare msgType = iota
	msgPrepare
	msgCommit
	msgReply
	msgViewChange
	msgNewView
	msgTimeout  // internal timer event
	msgDispatch // internal: primary re-proposes after a view change
)

// message is one network event.
type message struct {
	at     float64
	from   NodeID
	to     NodeID
	kind   msgType
	view   int
	seq    int
	digest string
	body   string
}

// eventQueue is a min-heap over delivery times with a deterministic
// tiebreaker so runs replay identically.
type eventQueue []*message

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].kind != q[j].kind {
		return q[i].kind < q[j].kind
	}
	if q[i].from != q[j].from {
		return q[i].from < q[j].from
	}
	return q[i].to < q[j].to
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*message)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); m := old[n-1]; *q = old[:n-1]; return m }

// replica is one node's protocol state.
type replica struct {
	id       NodeID
	os       osmap.Distro
	behavior Behavior

	view      int
	preprep   map[int]string // seq -> accepted digest in current view
	prepares  map[int]map[NodeID]string
	commits   map[int]map[NodeID]string
	executed  map[int]string          // seq -> digest executed
	vcVotes   map[int]map[NodeID]bool // proposed view -> voters
	execOrder []string
}

func newReplica(id NodeID, os osmap.Distro) *replica {
	return &replica{
		id:       id,
		os:       os,
		preprep:  make(map[int]string),
		prepares: make(map[int]map[NodeID]string),
		commits:  make(map[int]map[NodeID]string),
		executed: make(map[int]string),
		vcVotes:  make(map[int]map[NodeID]bool),
	}
}

// Config describes a cluster.
type Config struct {
	// F is the fault threshold; the cluster has 3F+1 replicas.
	F int
	// OSes assigns an operating system to each replica; its length must
	// be 3F+1.
	OSes []osmap.Distro
	// BaseLatency is the one-way message latency (simulated time units).
	// Zero means 1.0.
	BaseLatency float64
	// Timeout is the view-change timeout. Zero means 20x BaseLatency.
	Timeout float64
	// Seed jitters per-link latency deterministically.
	Seed uint64
}

// Cluster is a simulated replicated service.
type Cluster struct {
	cfg      Config
	n        int
	replicas []*replica
	queue    eventQueue
	now      float64
	rngState uint64

	// client bookkeeping
	nextSeq   int
	replies   map[int]map[NodeID]string // request seq -> replies
	accepted  map[int]string            // request seq -> accepted result
	conflicts []string                  // descriptions of safety violations observed
	delivered int
}

// NewCluster validates the configuration and builds the cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.F < 1 {
		return nil, errors.New("bft: F must be at least 1")
	}
	n := 3*cfg.F + 1
	if len(cfg.OSes) != n {
		return nil, fmt.Errorf("bft: need %d OSes for F=%d, got %d", n, cfg.F, len(cfg.OSes))
	}
	if cfg.BaseLatency == 0 {
		cfg.BaseLatency = 1.0
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 20 * cfg.BaseLatency
	}
	c := &Cluster{
		cfg:      cfg,
		n:        n,
		replies:  make(map[int]map[NodeID]string),
		accepted: make(map[int]string),
		rngState: cfg.Seed | 1,
	}
	for i := 0; i < n; i++ {
		c.replicas = append(c.replicas, newReplica(NodeID(i), cfg.OSes[i]))
	}
	return c, nil
}

// CompromiseByOS compromises every replica running a distribution,
// modeling a shared-vulnerability exploit. It returns how many replicas
// were affected.
func (c *Cluster) CompromiseByOS(d osmap.Distro, b Behavior) int {
	n := 0
	for _, r := range c.replicas {
		if r.os == d && r.behavior == Honest {
			r.behavior = b
			n++
		}
	}
	return n
}

// Rotate redeploys the cluster on a new OS assignment, modeling the
// rotation boundary of a dynamic-diversity schedule: every replica is
// rejuvenated from a clean image of its new distribution. Protocol
// state for in-flight requests resets; views are preserved so the
// cluster keeps its primary succession across the boundary.
func (c *Cluster) Rotate(oses []osmap.Distro) error {
	if len(oses) != c.n {
		return fmt.Errorf("bft: need %d OSes for F=%d, got %d", c.n, c.cfg.F, len(oses))
	}
	for i, r := range c.replicas {
		fresh := newReplica(r.id, oses[i])
		fresh.view = r.view
		c.replicas[i] = fresh
	}
	return nil
}

// jitter returns a small deterministic latency perturbation in [0, 0.5).
func (c *Cluster) jitter() float64 {
	x := c.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rngState = x
	return float64((x*0x2545F4914F6CDD1D)%1000) / 2000
}

func (c *Cluster) send(from, to NodeID, kind msgType, view, seq int, digest, body string) {
	if from != -1 && c.replicas[from].behavior == Silent {
		return
	}
	heap.Push(&c.queue, &message{
		at:     c.now + c.cfg.BaseLatency + c.jitter(),
		from:   from,
		to:     to,
		kind:   kind,
		view:   view,
		seq:    seq,
		digest: digest,
		body:   body,
	})
}

func (c *Cluster) broadcast(from NodeID, kind msgType, view, seq int, digest, body string) {
	for i := 0; i < c.n; i++ {
		if NodeID(i) != from {
			c.send(from, NodeID(i), kind, view, seq, digest, body)
		}
	}
}

// primaryOf returns the primary for a view.
func (c *Cluster) primaryOf(view int) NodeID { return NodeID(view % c.n) }

// Submit schedules a client request. The digest is derived from the
// operation; honest replicas reply with "ok:<op>".
func (c *Cluster) Submit(op string) int {
	seq := c.nextSeq
	c.nextSeq++
	// The client sends to the primary of the current (view-0) primary;
	// view changes re-propose via NewView.
	c.dispatchRequest(seq, op, 0)
	// Arm the client-side timeout that triggers a view change.
	heap.Push(&c.queue, &message{at: c.now + c.cfg.Timeout, from: -1, to: -1, kind: msgTimeout, seq: seq, view: 0, body: op})
	return seq
}

func (c *Cluster) dispatchRequest(seq int, op string, view int) {
	primary := c.primaryOf(view)
	p := c.replicas[primary]
	digest := fmt.Sprintf("d(%s)", op)
	switch p.behavior {
	case Silent:
		// Primary drops the request; the timeout will fire.
	case Equivocate:
		// Conflicting digests to different halves of the cluster.
		for i := 0; i < c.n; i++ {
			if NodeID(i) == primary {
				continue
			}
			alt := digest
			if i%2 == 0 {
				alt = fmt.Sprintf("evil(%s)", op)
			}
			c.send(primary, NodeID(i), msgPrePrepare, view, seq, alt, op)
		}
	default:
		c.broadcast(primary, msgPrePrepare, view, seq, digest, op)
		// The primary prepares its own proposal implicitly.
		c.recordPrepare(p, view, seq, digest, primary)
	}
}

// Run drains the event queue up to the time horizon and returns the
// simulated completion time.
func (c *Cluster) Run(horizon float64) float64 {
	for c.queue.Len() > 0 {
		m := heap.Pop(&c.queue).(*message)
		if m.at > horizon {
			// Leave the event for a later Run — a partial run must not
			// swallow the first message beyond its horizon.
			heap.Push(&c.queue, m)
			break
		}
		c.now = m.at
		c.deliver(m)
	}
	return c.now
}

func (c *Cluster) deliver(m *message) {
	switch m.kind {
	case msgTimeout:
		// Client timeout: if the request was not accepted, every live
		// replica votes for the next view, and the timer re-arms in
		// case the next primary is compromised too.
		if _, done := c.accepted[m.seq]; !done {
			for _, r := range c.replicas {
				if r.behavior == Honest || r.behavior == ForgeReplies {
					c.voteViewChange(r, m.view+1, m.seq, m.body)
				}
			}
			if m.view < c.n+2 {
				heap.Push(&c.queue, &message{
					at: c.now + c.cfg.Timeout, from: -1, to: -1,
					kind: msgTimeout, seq: m.seq, view: m.view + 1, body: m.body,
				})
			}
		}
		return
	case msgDispatch:
		c.dispatchRequest(m.seq, m.body, m.view)
		return
	}
	if m.to == -1 {
		c.clientDeliver(m)
		return
	}
	r := c.replicas[m.to]
	if r.behavior == Silent {
		return
	}
	switch m.kind {
	case msgPrePrepare:
		c.onPrePrepare(r, m)
	case msgPrepare:
		c.onPrepare(r, m)
	case msgCommit:
		c.onCommit(r, m)
	case msgViewChange:
		c.onViewChange(r, m)
	case msgNewView:
		c.onNewView(r, m)
	}
}

func (c *Cluster) onPrePrepare(r *replica, m *message) {
	if m.view != r.view || m.from != c.primaryOf(m.view) {
		return
	}
	if prev, ok := r.preprep[m.seq]; ok && prev != m.digest {
		// Conflicting pre-prepare from the primary: demand a view change.
		c.voteViewChange(r, r.view+1, m.seq, m.body)
		return
	}
	r.preprep[m.seq] = m.digest
	// The pre-prepare doubles as the primary's prepare vote.
	c.recordPrepare(r, m.view, m.seq, m.digest, m.from)
	digest := m.digest
	if r.behavior == Equivocate {
		digest = "evil(" + m.body + ")"
	}
	c.broadcast(r.id, msgPrepare, m.view, m.seq, digest, m.body)
	c.recordPrepare(r, m.view, m.seq, digest, r.id)
}

// voteViewChange broadcasts a view-change vote and records the voter's
// own voice (broadcast excludes self).
func (c *Cluster) voteViewChange(r *replica, view, seq int, body string) {
	c.broadcast(r.id, msgViewChange, view, seq, "", body)
	c.onViewChange(r, &message{from: r.id, view: view, seq: seq, body: body})
}

func (c *Cluster) recordPrepare(r *replica, view, seq int, digest string, from NodeID) {
	if view != r.view {
		return
	}
	votes, ok := r.prepares[seq]
	if !ok {
		votes = make(map[NodeID]string)
		r.prepares[seq] = votes
	}
	votes[from] = digest
	// Prepared when 2f+1 replicas (including self) agree on one digest
	// that matches the accepted pre-prepare.
	want, ok := r.preprep[seq]
	if !ok {
		return
	}
	n := 0
	for _, d := range votes {
		if d == want {
			n++
		}
	}
	if n >= 2*c.cfg.F+1 {
		if cm, ok := r.commits[seq]; !ok || cm[r.id] == "" {
			c.broadcast(r.id, msgCommit, view, seq, want, "")
			c.recordCommit(r, view, seq, want, r.id)
		}
	}
}

func (c *Cluster) onPrepare(r *replica, m *message) {
	c.recordPrepare(r, m.view, m.seq, m.digest, m.from)
}

func (c *Cluster) recordCommit(r *replica, view, seq int, digest string, from NodeID) {
	if view != r.view {
		return
	}
	votes, ok := r.commits[seq]
	if !ok {
		votes = make(map[NodeID]string)
		r.commits[seq] = votes
	}
	votes[from] = digest
	n := 0
	for _, d := range votes {
		if d == digest {
			n++
		}
	}
	if n >= 2*c.cfg.F+1 && r.executed[seq] == "" {
		r.executed[seq] = digest
		r.execOrder = append(r.execOrder, fmt.Sprintf("%d:%s", seq, digest))
		result := "ok:" + digest
		if r.behavior == ForgeReplies {
			result = "forged:" + digest
		}
		c.send(r.id, -1, msgReply, view, seq, digest, result)
	}
}

func (c *Cluster) onCommit(r *replica, m *message) {
	c.recordCommit(r, m.view, m.seq, m.digest, m.from)
}

func (c *Cluster) onViewChange(r *replica, m *message) {
	if m.view <= r.view {
		return
	}
	votes, ok := r.vcVotes[m.view]
	if !ok {
		votes = make(map[NodeID]bool)
		r.vcVotes[m.view] = votes
	}
	votes[m.from] = true
	if len(votes) >= 2*c.cfg.F+1 && c.primaryOf(m.view) == r.id && r.behavior != Silent {
		// New primary installs the view, announces it, and re-proposes
		// the request after the announcement has had time to land.
		c.broadcast(r.id, msgNewView, m.view, m.seq, "", m.body)
		r.view = m.view
		heap.Push(&c.queue, &message{
			at: c.now + 2*c.cfg.BaseLatency, from: -1, to: -1,
			kind: msgDispatch, seq: m.seq, view: m.view, body: m.body,
		})
	}
}

func (c *Cluster) onNewView(r *replica, m *message) {
	if m.view > r.view {
		r.view = m.view
		// Reset per-view progress for the re-proposed request.
		delete(r.preprep, m.seq)
		delete(r.prepares, m.seq)
		delete(r.commits, m.seq)
		delete(r.executed, m.seq)
	}
}

// clientDeliver gathers replies; the client accepts a result once f+1
// replicas agree on it.
func (c *Cluster) clientDeliver(m *message) {
	if m.kind != msgReply {
		return
	}
	got, ok := c.replies[m.seq]
	if !ok {
		got = make(map[NodeID]string)
		c.replies[m.seq] = got
	}
	got[m.from] = m.body
	if _, done := c.accepted[m.seq]; done {
		return
	}
	counts := make(map[string]int)
	for _, body := range got {
		counts[body]++
	}
	for body, n := range counts {
		if n >= c.cfg.F+1 {
			c.accepted[m.seq] = body
			c.delivered++
			break
		}
	}
}

// SafetyReport checks the two intrusion-tolerance properties and lists
// any violations:
//
//   - agreement: all honest replicas executed the same digest at every
//     sequence number;
//   - validity: every client-accepted result is an honest "ok:" result.
func (c *Cluster) SafetyReport() []string {
	var violations []string
	// Agreement across honest replicas.
	seqs := make(map[int]bool)
	for _, r := range c.replicas {
		if r.behavior != Honest {
			continue
		}
		for seq := range r.executed {
			seqs[seq] = true
		}
	}
	ordered := make([]int, 0, len(seqs))
	for seq := range seqs {
		ordered = append(ordered, seq)
	}
	sort.Ints(ordered)
	for _, seq := range ordered {
		var digest string
		for _, r := range c.replicas {
			if r.behavior != Honest {
				continue
			}
			d, ok := r.executed[seq]
			if !ok || d == "" {
				continue
			}
			if digest == "" {
				digest = d
				continue
			}
			if d != digest {
				violations = append(violations,
					fmt.Sprintf("agreement violation at seq %d: %q vs %q", seq, digest, d))
				break
			}
		}
	}
	// Validity of client-accepted results.
	for seq, body := range c.accepted {
		if len(body) < 3 || body[:3] != "ok:" {
			violations = append(violations,
				fmt.Sprintf("validity violation at seq %d: client accepted %q", seq, body))
		}
	}
	return violations
}
