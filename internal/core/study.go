// Package core implements the paper's primary contribution: the
// shared-vulnerability analysis over operating-system distributions.
//
// A Study ingests NVD entries (from feeds, the SQL store, or the
// synthetic corpus — anything that yields cve.Entry values), applies the
// paper's §III methodology (OS-part selection, validity filtering,
// clustering into distributions, component classification), and answers
// every question the evaluation section asks: per-OS totals, class
// distributions, pairwise and k-wise overlaps under the three server
// profiles, temporal splits, replica-set selection and per-release
// overlaps. The distro universe comes from the registry — the paper's 11
// distributions by default, arbitrarily many with a synthetic registry —
// and per-entry affected-OS sets are variable-width osmap.Mask bitmasks.
//
// Every question is answered by one engine (bitset.go) over the
// Study's year segments (segment.go): each publication year's valid
// records, with per-distro, per-profile and per-class posting bitsets
// packed as []uint64 and memoized raw counts, sealed once and never
// written again. Each table sums the raws of the segments it covers and
// finalizes the sum, spread across WithParallelism(n) workers one
// segment per task. A delta epoch (delta.go) rebuilds only the years
// its entries touch and shares the others, memos included, with its
// base. Finished tables are memoized per Study, and so is the attack
// model's vulnerability population (population.go). The identity tests
// check every answer against a serial record walk kept in
// oracle_test.go.
package core

import (
	"sync"
	"sync/atomic"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// Profile selects the server configuration of §IV-B.
type Profile int

// The three profiles, from most to least exposed.
const (
	// FatServer counts every shared vulnerability ("All").
	FatServer Profile = iota + 1
	// ThinServer removes Application-class vulnerabilities.
	ThinServer
	// IsolatedThinServer additionally keeps only remotely exploitable
	// vulnerabilities (CVSS access vector NETWORK or ADJACENT_NETWORK).
	IsolatedThinServer
)

// String names the profile as the paper does.
func (p Profile) String() string {
	switch p {
	case FatServer:
		return "Fat Server"
	case ThinServer:
		return "Thin Server"
	case IsolatedThinServer:
		return "Isolated Thin Server"
	default:
		return "Unknown Profile"
	}
}

// Profiles lists the three profiles in Table III column order. Only
// tests call it, to sweep every profile (core's and the root benchmarks).
func Profiles() []Profile { return []Profile{FatServer, ThinServer, IsolatedThinServer} }

// record is the per-entry digest the analyses run on.
type record struct {
	id       cve.ID
	mask     osmap.Mask // bit i set = affects the study's Distros()[i]
	nos      int        // cached mask popcount (affected distro count)
	class    classify.Class
	remote   bool
	year     int
	validity classify.Validity
	products int // distinct (vendor, product) platforms
}

// Study is the analysis engine. Construct with NewStudy.
type Study struct {
	registry   *osmap.Registry
	classifier *classify.Classifier

	// segs holds the valid records, one segment per publication year
	// that has any, years ascending; fresh[i] reports that segs[i] was
	// built for this Study rather than shared with a base or adopted
	// from columns (SelfCheck checks the fresh ones).
	segs    []*segment
	fresh   []bool
	nValid  int      // valid records over every segment
	invalid []record // entries removed by the validity filter, in ingestion order
	skipped int      // entries with no clustered OS product

	// distros/index freeze the registry's universe: distros in
	// presentation order, index mapping each to its mask bit.
	distros   []osmap.Distro
	nd        int
	maskWords int
	index     map[osmap.Distro]int

	// pairs/pairIdx freeze the universe's pair order so the all-pairs
	// tables and the per-pair accessors agree; pairAt (nd×nd, flat) maps
	// two distro bit indices to that order.
	pairs   []osmap.Pair
	pairIdx map[osmap.Pair]int
	pairAt  []int

	// workerCount is the query/ingestion worker count (1 = serial),
	// atomic so SetParallelism can race with in-flight queries safely.
	workerCount atomic.Int32

	// invOnce/inv lazily build the invalid-record postings.
	invOnce sync.Once
	inv     *invIndex

	// memo holds the finished tables of this epoch, and relPostings the
	// per-year postings of each release its records name
	// (releaseKey → [][]uint64, see releasePostings).
	memo        memo
	relPostings sync.Map
}

// Option configures a Study.
type Option func(*Study)

// WithRegistry substitutes the OS registry (the default is the study's
// 64-CPE, 11-distro registry). The registry also defines the distro
// universe the analyses run over.
func WithRegistry(r *osmap.Registry) Option {
	return func(s *Study) { s.registry = r }
}

// WithClassifier substitutes the component classifier.
func WithClassifier(c *classify.Classifier) Option {
	return func(s *Study) { s.classifier = c }
}

// NewStudy ingests entries and precomputes the per-entry digests; it is
// a one-batch Builder, so the entries are not retained. Entries that do
// not touch any clustered distribution are ignored (the paper keeps
// only its 64 CPEs); entries tagged Unknown, Unspecified or Disputed are
// kept aside and reported by ValidityTable but excluded from every
// analysis, exactly as in §III-A.
func NewStudy(entries []*cve.Entry, opts ...Option) *Study {
	b := NewBuilder(opts...)
	b.Add(entries...)
	return b.Finish()
}

// newStudyShell builds an empty Study with its universe frozen but no
// entries ingested — the shared seed of every construction path.
func newStudyShell(opts []Option) *Study {
	s := &Study{
		registry:   osmap.NewRegistry(),
		classifier: classify.NewClassifier(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.distros = s.registry.Distros()
	s.nd = len(s.distros)
	s.maskWords = (s.nd + 63) / 64
	s.index = make(map[osmap.Distro]int, s.nd)
	for i, d := range s.distros {
		s.index[d] = i
	}
	s.pairs = make([]osmap.Pair, 0, s.nd*(s.nd-1)/2)
	s.pairIdx = make(map[osmap.Pair]int)
	s.pairAt = make([]int, s.nd*s.nd)
	for i := 0; i < s.nd; i++ {
		for j := i + 1; j < s.nd; j++ {
			p := osmap.MakePair(s.distros[i], s.distros[j])
			pi := len(s.pairs)
			s.pairs = append(s.pairs, p)
			s.pairIdx[p] = pi
			s.pairAt[i*s.nd+j] = pi
			s.pairAt[j*s.nd+i] = pi
		}
	}
	return s
}

// Distros returns the study's distro universe in presentation order.
func (s *Study) Distros() []osmap.Distro { return append([]osmap.Distro(nil), s.distros...) }

// Pairs returns the universe's unordered pairs in table row order.
func (s *Study) Pairs() []osmap.Pair { return append([]osmap.Pair(nil), s.pairs...) }

// ValidEntries returns the number of valid entries under analysis.
func (s *Study) ValidEntries() int { return s.nValid }

// ValidityRow is one row of Table I.
type ValidityRow struct {
	Distro      osmap.Distro
	Valid       int
	Unknown     int
	Unspecified int
	Disputed    int
}

// validityResult is the memoized form of Table I.
type validityResult struct {
	rows     []ValidityRow
	distinct ValidityRow
}

// ValidityTable reproduces Table I: per-OS valid/removed counts plus the
// distinct totals across all OSes.
func (s *Study) ValidityTable() (rows []ValidityRow, distinct ValidityRow) {
	v := s.cached(ckey{q: qValidity}, func() any { return s.validityBitset() }).(*validityResult)
	return append([]ValidityRow(nil), v.rows...), v.distinct
}

// ClassRow is one row of Table II.
type ClassRow struct {
	Distro  osmap.Distro
	Driver  int
	Kernel  int
	SysSoft int
	App     int
}

// classResult is the memoized form of Table II.
type classResult struct {
	rows   []ClassRow
	shares [4]float64
}

// ClassTable reproduces Table II: per-OS component-class counts and the
// distinct-vulnerability percentage shares of the four classes.
func (s *Study) ClassTable() (rows []ClassRow, shares [4]float64) {
	v := s.cached(ckey{q: qClass}, func() any { return s.classBitset() }).(*classResult)
	return append([]ClassRow(nil), v.rows...), v.shares
}

// totals returns the per-distro valid counts under a profile, indexed
// by position in the study's Distros().
func (s *Study) totals(profile Profile) []int {
	all := s.cached(ckey{q: qTotals}, func() any { return s.totalsBitset() }).([]int)
	return all[int(profile-1)*s.nd : int(profile)*s.nd]
}

// Total counts the valid vulnerabilities of one distribution under a
// profile (the v(A) columns of Table III); 0 for a distro outside the
// universe.
func (s *Study) Total(d osmap.Distro, profile Profile) int {
	if i, ok := s.index[d]; ok {
		return s.totals(profile)[i]
	}
	return 0
}

// pairCounts returns all pairwise overlaps under a profile, indexed by
// position in the study's Pairs().
func (s *Study) pairCounts(profile Profile) []int {
	return s.cached(ckey{q: qPairs, profile: profile}, func() any { return s.pairCountsBitset(profile) }).([]int)
}

// Overlap counts the vulnerabilities shared by both members of a pair
// under a profile (the v(AB) columns of Table III); 0 for a pair outside
// the universe.
func (s *Study) Overlap(p osmap.Pair, profile Profile) int {
	if i, ok := s.pairIdx[p]; ok {
		return s.pairCounts(profile)[i]
	}
	return 0
}

// PairMatrix computes all pairwise overlaps under a profile (Table III
// has 55 pairs for the paper's 11-distro universe). Only tests call it:
// core's identity tests and the gated benchmarks (vulndb, the root
// package).
func (s *Study) PairMatrix(profile Profile) map[osmap.Pair]int {
	counts := s.pairCounts(profile)
	out := make(map[osmap.Pair]int, len(s.pairs))
	for i, p := range s.pairs {
		out[p] = counts[i]
	}
	return out
}

// PartCounts breaks an Isolated-Thin-Server overlap down by component
// class (one row of Table IV).
type PartCounts struct {
	Driver  int
	Kernel  int
	SysSoft int
}

// Total sums the row.
func (p PartCounts) Total() int { return p.Driver + p.Kernel + p.SysSoft }

// partCounts returns every pair's Table IV row, indexed by position in
// the study's Pairs().
func (s *Study) partCounts() []PartCounts {
	return s.cached(ckey{q: qParts}, func() any { return s.partsBitset() }).([]PartCounts)
}

// PartBreakdown reproduces one pair's Table IV row; the zero row for a
// pair outside the universe.
func (s *Study) PartBreakdown(p osmap.Pair) PartCounts {
	if i, ok := s.pairIdx[p]; ok {
		return s.partCounts()[i]
	}
	return PartCounts{}
}

// PeriodCounts splits an overlap into history and observed periods
// (one cell of Table V).
type PeriodCounts struct {
	History  int
	Observed int
}

// periodCounts returns every pair's Table V cell for one split year,
// indexed by position in the study's Pairs().
func (s *Study) periodCounts(splitYear int) []PeriodCounts {
	return s.cached(ckey{q: qPeriods, a: splitYear}, func() any { return s.periodsBitset(splitYear) }).([]PeriodCounts)
}

// PeriodSplit reproduces one pair's Table V cell: Isolated-Thin-Server
// overlap split at splitYear (inclusive on the history side); the zero
// cell for a pair outside the universe.
func (s *Study) PeriodSplit(p osmap.Pair, splitYear int) PeriodCounts {
	if i, ok := s.pairIdx[p]; ok {
		return s.periodCounts(splitYear)[i]
	}
	return PeriodCounts{}
}

// TemporalSeries reproduces one curve of Figure 2: valid vulnerabilities
// per publication year for one distribution; an empty map for a distro
// outside the universe.
func (s *Study) TemporalSeries(d osmap.Distro) map[int]int {
	idx, ok := s.index[d]
	if !ok {
		return map[int]int{}
	}
	v := s.cached(ckey{q: qTemporal, a: idx}, func() any { return s.temporalBitset(idx) }).(map[int]int)
	out := make(map[int]int, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// YearRange returns the [min, max] publication years across the valid
// data set.
func (s *Study) YearRange() (lo, hi int) {
	if len(s.segs) == 0 {
		return 0, 0
	}
	return s.segs[0].year, s.segs[len(s.segs)-1].year
}

// KWiseClusters counts, for each set size k, the number of distinct
// valid vulnerabilities affecting at least k distributions of the
// universe under the profile. Only tests call it: core's identity tests
// and the gated benchmarks (vulndb, the root package).
func (s *Study) KWiseClusters(profile Profile) map[int]int {
	v := s.cached(ckey{q: qKWiseClusters, profile: profile}, func() any { return s.kwiseClustersBitset(profile) }).(map[int]int)
	out := make(map[int]int, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// KWiseProducts counts distinct valid vulnerabilities affecting at least
// k OS *products* (the granularity of the paper's §IV-B sentences about
// six- and nine-OS vulnerabilities).
func (s *Study) KWiseProducts(profile Profile) map[int]int {
	v := s.cached(ckey{q: qKWiseProducts, profile: profile}, func() any { return s.kwiseProductsBitset(profile) }).(map[int]int)
	out := make(map[int]int, len(v))
	for k, n := range v {
		out[k] = n
	}
	return out
}

// FilterReduction computes §IV-E(1): the average relative reduction of
// pairwise overlap going from one profile to another, over pairs with a
// non-zero baseline.
func (s *Study) FilterReduction(from, to Profile) float64 {
	return FilterReductionFrom(s.pairCounts(from), s.pairCounts(to))
}

// ReleaseOverlap counts valid Isolated-Thin-Server vulnerabilities that
// affect both named (distribution, version) releases, deriving release
// membership from the CPE version fields (Table VI). It sums, over the
// years naming both releases, the records in both per-release posting
// bitsets memoized on each year segment (see releasePostings).
func (s *Study) ReleaseOverlap(da osmap.Distro, va string, db osmap.Distro, vb string) int {
	a, b := s.releasePostings(da, va), s.releasePostings(db, vb)
	if a == nil || b == nil {
		return 0
	}
	n := 0
	for i, g := range s.segs {
		if a[i] != nil && b[i] != nil {
			n += and3Popcount(a[i], b[i], g.profile[IsolatedThinServer-1])
		}
	}
	return n
}
