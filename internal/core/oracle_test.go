package core

import (
	"slices"
	"sort"
	"testing"

	"osdiversity/internal/classify"
	"osdiversity/internal/cve"
	"osdiversity/internal/osmap"
)

// The reference oracle of the identity tests: a serial walk over the
// digested records — the valid ones assembled into one flat list by
// flatRecords, and s.invalid — that answers every Study query a second,
// independent way. It filters with record.matches and mask.Has only and
// shares no code with the bitset engine in bitset.go or the year
// segments it runs on, so agreement between the two is an N-version
// cross-check of each table. The release questions (Table VI) go back to the source entries
// instead: the oracle walks each valid record's CPE list, which the
// Study does not keep, and rebuilds the release columns from it.

// matches reports whether the record survives the profile filter. The
// engine filters by posting bitsets instead and has no per-record check.
func (r *record) matches(p Profile) bool {
	switch p {
	case FatServer:
		return true
	case ThinServer:
		return r.class != classify.ClassApplication
	case IsolatedThinServer:
		return r.class != classify.ClassApplication && r.remote
	default:
		return false
	}
}

// oracleTables is the oracle's answer to every identity-suite query over
// one study, at one split year and one selection window.
type oracleTables struct {
	validityRows     []ValidityRow
	validityDistinct ValidityRow
	classRows        []ClassRow
	classShares      [4]float64

	distros       map[osmap.Distro]oracleDistro
	pairs         map[osmap.Pair]oraclePair
	kwiseClusters map[Profile]map[int]int
	kwiseProducts map[Profile]map[int]int
	mostShared    []cve.ID
	// releases holds each probe pair's Table VI cell for the first
	// recorded release of either member ("" when it has none).
	releases map[osmap.Pair]int
	// relCols are the release columns rebuilt from the source entries.
	relCols relColumns
}

// oracleDistro is what the oracle knows about one distribution.
type oracleDistro struct {
	total    [3]int // indexed Profile-1
	temporal map[int]int
	window   int // Isolated-Thin-Server records inside the window
}

// oraclePair is what the oracle knows about one pair.
type oraclePair struct {
	overlap [3]int // indexed Profile-1
	parts   PartCounts
	period  PeriodCounts
	window  int // shared Isolated-Thin-Server records inside the window
}

// probeDistros lists the study's universe followed by every paper
// distribution outside it, so a narrow universe is also asked about the
// distros it lacks.
func probeDistros(s *Study) []osmap.Distro {
	out := s.Distros()
	for _, d := range osmap.Distros() {
		if _, ok := s.index[d]; !ok {
			out = append(out, d)
		}
	}
	return out
}

// firstRelease names a distro's first recorded release version.
func firstRelease(s *Study, d osmap.Distro) string {
	if rels := s.registry.Releases(d); len(rels) > 0 {
		return rels[0].Version
	}
	return ""
}

// entriesByID indexes the source entries of a study by identifier; the
// corpora the oracle reads hold each identifier once.
func entriesByID(t *testing.T, entries []*cve.Entry) map[cve.ID]*cve.Entry {
	t.Helper()
	byID := make(map[cve.ID]*cve.Entry, len(entries))
	for _, e := range entries {
		if _, dup := byID[e.ID]; dup {
			t.Fatalf("source corpus repeats %v", e.ID)
		}
		byID[e.ID] = e
	}
	return byID
}

// oracleAnswers walks s once per question, and the source entries byID
// for the release questions, and collects the answers for every probe
// distro and pair.
func oracleAnswers(s *Study, byID map[cve.ID]*cve.Entry, split int, w SelectionWindow) *oracleTables {
	recs := flatRecords(s)
	o := &oracleTables{
		distros:       make(map[osmap.Distro]oracleDistro),
		pairs:         make(map[osmap.Pair]oraclePair),
		kwiseClusters: make(map[Profile]map[int]int),
		kwiseProducts: make(map[Profile]map[int]int),
		releases:      make(map[osmap.Pair]int),
	}
	o.validityRows, o.validityDistinct = oracleValidity(s, recs)
	o.classRows, o.classShares = oracleClass(s, recs)
	probe := probeDistros(s)
	for _, d := range probe {
		o.distros[d] = oracleForDistro(s, recs, d, w)
	}
	for _, p := range osmap.PairsOf(probe) {
		o.pairs[p] = oracleForPair(s, recs, p, split, w)
		o.releases[p] = oracleReleaseOverlap(s, recs, byID, p.A, firstRelease(s, p.A), p.B, firstRelease(s, p.B))
	}
	for _, profile := range Profiles() {
		o.kwiseClusters[profile] = oracleKWise(s, recs, profile, func(r *record) int { return r.nos })
		o.kwiseProducts[profile] = oracleKWise(s, recs, profile, func(r *record) int { return r.products })
	}
	o.mostShared = oracleMostShared(s, recs)
	o.relCols = oracleRelColumns(s, recs, byID)
	return o
}

// flatRecords assembles a study's valid records into one list, years
// ascending and input order within a year: the record order of the
// exported columns, and the list the oracle walks.
func flatRecords(s *Study) []record {
	var out []record
	for _, g := range s.segs {
		out = append(out, g.recs...)
	}
	return out
}

func oracleValidity(s *Study, recs []record) ([]ValidityRow, ValidityRow) {
	rows := make([]ValidityRow, len(s.distros))
	distinct := ValidityRow{Valid: len(recs)}
	for bit, d := range s.distros {
		rows[bit].Distro = d
	}
	for i := range recs {
		for bit := range s.distros {
			if recs[i].mask.Has(bit) {
				rows[bit].Valid++
			}
		}
	}
	bump := func(row *ValidityRow, v classify.Validity) {
		switch v {
		case classify.Unknown:
			row.Unknown++
		case classify.Unspecified:
			row.Unspecified++
		case classify.Disputed:
			row.Disputed++
		}
	}
	for i := range s.invalid {
		r := &s.invalid[i]
		bump(&distinct, r.validity)
		for bit := range s.distros {
			if r.mask.Has(bit) {
				bump(&rows[bit], r.validity)
			}
		}
	}
	return rows, distinct
}

func oracleClass(s *Study, recs []record) ([]ClassRow, [4]float64) {
	rows := make([]ClassRow, len(s.distros))
	var distinct ClassRow
	for bit, d := range s.distros {
		rows[bit].Distro = d
	}
	bump := func(row *ClassRow, c classify.Class) {
		switch c {
		case classify.ClassDriver:
			row.Driver++
		case classify.ClassKernel:
			row.Kernel++
		case classify.ClassSysSoft:
			row.SysSoft++
		case classify.ClassApplication:
			row.App++
		}
	}
	for i := range recs {
		r := &recs[i]
		bump(&distinct, r.class)
		for bit := range s.distros {
			if r.mask.Has(bit) {
				bump(&rows[bit], r.class)
			}
		}
	}
	counts := [4]int{distinct.Driver, distinct.Kernel, distinct.SysSoft, distinct.App}
	return rows, ClassShares(counts, len(recs))
}

// oracleForDistro answers the per-distro queries; a distro outside the
// universe matches no record.
func oracleForDistro(s *Study, recs []record, d osmap.Distro, w SelectionWindow) oracleDistro {
	out := oracleDistro{temporal: map[int]int{}}
	bit, ok := s.index[d]
	if !ok {
		return out
	}
	profiles := Profiles()
	for i := range recs {
		r := &recs[i]
		if !r.mask.Has(bit) {
			continue
		}
		out.temporal[r.year]++
		for _, p := range profiles {
			if r.matches(p) {
				out.total[p-1]++
			}
		}
		if r.matches(IsolatedThinServer) && w.Contains(r.year) {
			out.window++
		}
	}
	return out
}

// oracleForPair answers the per-pair queries; a pair with a member
// outside the universe matches no record.
func oracleForPair(s *Study, recs []record, p osmap.Pair, split int, w SelectionWindow) oraclePair {
	var out oraclePair
	a, okA := s.index[p.A]
	b, okB := s.index[p.B]
	if !okA || !okB {
		return out
	}
	profiles := Profiles()
	for i := range recs {
		r := &recs[i]
		if !r.mask.Has(a) || !r.mask.Has(b) {
			continue
		}
		for _, prof := range profiles {
			if r.matches(prof) {
				out.overlap[prof-1]++
			}
		}
		if !r.matches(IsolatedThinServer) {
			continue
		}
		switch r.class {
		case classify.ClassDriver:
			out.parts.Driver++
		case classify.ClassKernel:
			out.parts.Kernel++
		case classify.ClassSysSoft:
			out.parts.SysSoft++
		}
		if r.year <= split {
			out.period.History++
		} else {
			out.period.Observed++
		}
		if w.Contains(r.year) {
			out.window++
		}
	}
	return out
}

// oracleKWise counts, for each k >= 2, the records of the profile whose
// width (distro or product count) is at least k.
func oracleKWise(s *Study, recs []record, profile Profile, width func(*record) int) map[int]int {
	out := map[int]int{}
	for i := range recs {
		r := &recs[i]
		if !r.matches(profile) {
			continue
		}
		for k := 2; k <= width(r); k++ {
			out[k]++
		}
	}
	return out
}

// oracleMostShared orders every valid record by product count
// descending, ties by CVE ID ascending.
func oracleMostShared(s *Study, recs []record) []cve.ID {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		a, b := &recs[order[x]], &recs[order[y]]
		if a.products != b.products {
			return a.products > b.products
		}
		return a.id.Less(b.id)
	})
	ids := make([]cve.ID, len(order))
	for i, ri := range order {
		ids[i] = recs[ri].id
	}
	return ids
}

// oracleAffects reports whether the entry names the (distro, version)
// release: any product the registry clusters into the distro, whatever
// its CPE part, at that version.
func oracleAffects(s *Study, e *cve.Entry, d osmap.Distro, version string) bool {
	for _, p := range e.Products {
		if c, ok := s.registry.Cluster(p); ok && c == d && p.Version == version {
			return true
		}
	}
	return false
}

func oracleReleaseOverlap(s *Study, recs []record, byID map[cve.ID]*cve.Entry, da osmap.Distro, va string, db osmap.Distro, vb string) int {
	n := 0
	for i := range recs {
		e := byID[recs[i].id]
		if recs[i].matches(IsolatedThinServer) && oracleAffects(s, e, da, va) && oracleAffects(s, e, db, vb) {
			n++
		}
	}
	return n
}

// oracleRelColumns rebuilds the release columns by walking each valid
// record's source entry, in record order: every product the registry
// clusters, whatever its CPE part, packed with its version's index in
// a table interned first-seen, and each (distro, version) kept once per
// record in CPE order.
func oracleRelColumns(s *Study, recs []record, byID map[cve.ID]*cve.Entry) relColumns {
	rc := relColumns{off: make([]int32, len(recs)+1)}
	vidx := make(map[string]uint32)
	for i := range recs {
		start := len(rc.refs)
		for _, p := range byID[recs[i].id].Products {
			d, ok := s.registry.Cluster(p)
			if !ok {
				continue
			}
			vi, ok := vidx[p.Version]
			if !ok {
				vi = uint32(len(rc.versions))
				vidx[p.Version] = vi
				rc.versions = append(rc.versions, p.Version)
			}
			if packed := uint64(d)<<32 | uint64(vi); !slices.Contains(rc.refs[start:], packed) {
				rc.refs = append(rc.refs, packed)
			}
		}
		rc.off[i+1] = int32(len(rc.refs))
	}
	return rc
}

// relColumnsEqual compares release columns element by element (an
// empty column equals a nil one).
func relColumnsEqual(a, b *relColumns) bool {
	return slices.Equal(a.off, b.off) && slices.Equal(a.refs, b.refs) && slices.Equal(a.versions, b.versions)
}

// setCost is the oracle's replica-set cost in the window: a lone member
// costs its own count, a larger set the sum over its pairs.
func (o *oracleTables) setCost(members []osmap.Distro) int {
	if len(members) == 1 {
		return o.distros[members[0]].window
	}
	cost := 0
	for _, p := range osmap.PairsOf(members) {
		cost += o.pairs[p].window
	}
	return cost
}

// oraclePopulation is the serial walk behind Study.Population: the
// records surviving the profile sorted by CVE ID, and for each distro
// bit the positions of the ones inside the window that affect it.
func oraclePopulation(s *Study, recs []record, profile Profile, w SelectionWindow) (masks []osmap.Mask, years []int, byDistro [][]int32) {
	var kept []*record
	for i := range recs {
		if recs[i].matches(profile) {
			kept = append(kept, &recs[i])
		}
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].id.Less(kept[j].id) })
	byDistro = make([][]int32, s.nd)
	for i, r := range kept {
		masks = append(masks, r.mask)
		years = append(years, r.year)
		if !w.Contains(r.year) {
			continue
		}
		for b := 0; b < s.nd; b++ {
			if r.mask.Has(b) {
				byDistro[b] = append(byDistro[b], int32(i))
			}
		}
	}
	return masks, years, byDistro
}
