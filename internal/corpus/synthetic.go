package corpus

import (
	"fmt"
	"sync"
	"time"

	"osdiversity/internal/classify"
	"osdiversity/internal/cpe"
	"osdiversity/internal/cve"
	"osdiversity/internal/cvss"
	"osdiversity/internal/osmap"
)

// This file generates the synthetic "modern NVD" corpus: a deterministic,
// seeded population of 100k+ entries over an arbitrarily wide distro
// universe, used to exercise the analysis engine at production volume
// (the calibrated corpus reproduces the paper's ~2.1k entries; this one
// stress-tests the sharded bitset paths). Entries carry the same
// vocabulary as the calibrated corpus — summary templates the classifier
// recognises, CVSS vectors matching locality, registry-canonical CPEs —
// so the full text-in/tables-out pipeline runs unchanged.

// SyntheticConfig parameterizes GenerateSynthetic.
type SyntheticConfig struct {
	// Entries is the corpus size (default 100_000).
	Entries int
	// Distros is the universe width (default 32, minimum 2). The first
	// 11 are the paper's real clusters; the rest are synthetic.
	Distros int
	// Seed drives every random choice; the same seed always yields the
	// same corpus, at any worker count.
	Seed uint64
	// FromYear/ToYear bound publication years (default 2002..2025).
	FromYear, ToYear int
	// Workers bounds the rendering pool (default 1; <= 0 means 1).
	Workers int
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Entries == 0 {
		c.Entries = 100_000
	}
	if c.Distros == 0 {
		c.Distros = 32
	}
	if c.FromYear == 0 {
		c.FromYear = 2002
	}
	if c.ToYear == 0 {
		c.ToYear = 2025
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return c
}

// SyntheticCorpus is a generated population plus the registry defining
// its distro universe (analyses must be built with this registry).
type SyntheticCorpus struct {
	Entries  []*cve.Entry
	Registry *osmap.Registry
	Config   SyntheticConfig
}

// splitmix64 is the SplitMix64 mixing function; it turns (seed, counter)
// pairs into independent deterministic streams.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// synRand is a per-entry deterministic stream: every draw depends only
// on (seed, entry index, draw counter), so rendering order and worker
// count cannot change the corpus.
type synRand struct {
	base uint64
	ctr  uint64
}

func newSynRand(seed uint64, entry int) *synRand {
	return &synRand{base: splitmix64(seed ^ (uint64(entry)+1)*0xD1342543DE82EF95)}
}

func (r *synRand) next() uint64 {
	r.ctr++
	return splitmix64(r.base + r.ctr)
}

// intn returns a draw in [0, n).
func (r *synRand) intn(n int) int { return int(r.next() % uint64(n)) }

// pct returns a draw in [0, 100).
func (r *synRand) pct() int { return r.intn(100) }

// GenerateSynthetic builds the synthetic corpus. The construction is
// deterministic for a given config: identical output at any parallelism.
func GenerateSynthetic(cfg SyntheticConfig) (*SyntheticCorpus, error) {
	cfg = cfg.withDefaults()
	if cfg.Entries < 1 {
		return nil, fmt.Errorf("corpus: synthetic corpus needs at least 1 entry, got %d", cfg.Entries)
	}
	if cfg.Distros < 2 {
		return nil, fmt.Errorf("corpus: synthetic universe needs at least 2 distros, got %d", cfg.Distros)
	}
	if cfg.FromYear > cfg.ToYear {
		return nil, fmt.Errorf("corpus: year window %d..%d is empty", cfg.FromYear, cfg.ToYear)
	}
	if cfg.FromYear < 1990 || cfg.ToYear > 2099 {
		return nil, fmt.Errorf("corpus: year window %d..%d outside CVE-representable range", cfg.FromYear, cfg.ToYear)
	}
	sc := &SyntheticCorpus{
		Registry: osmap.NewSyntheticRegistry(cfg.Distros),
		Config:   cfg,
		Entries:  make([]*cve.Entry, cfg.Entries),
	}

	// Pass 1 (serial): publication years and per-year CVE sequence
	// numbers. Report volume grows toward recent years (max of two
	// uniform draws), like the real feed.
	span := cfg.ToYear - cfg.FromYear + 1
	years := make([]int, cfg.Entries)
	seqs := make([]int, cfg.Entries)
	perYear := make(map[int]int, span)
	for i := 0; i < cfg.Entries; i++ {
		r := newSynRand(cfg.Seed, i)
		a, b := r.intn(span), r.intn(span)
		if b > a {
			a = b
		}
		y := cfg.FromYear + a
		years[i] = y
		seqs[i] = 10_000 + perYear[y]
		perYear[y]++
	}

	// Pass 2 (parallel): render each entry from its own stream.
	distros := sc.Registry.Distros()
	workers := cfg.Workers
	if workers > cfg.Entries {
		workers = cfg.Entries
	}
	errs := make([]error, workers)
	chunk := (cfg.Entries + workers - 1) / workers
	var wg sync.WaitGroup
	for sh := 0; sh < workers; sh++ {
		lo := sh * chunk
		hi := lo + chunk
		if hi > cfg.Entries {
			hi = cfg.Entries
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(sh, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				e, err := sc.renderSynthetic(i, years[i], seqs[i], distros)
				if err != nil {
					errs[sh] = err
					return
				}
				sc.Entries[i] = e
			}
		}(sh, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// syntheticExtras are unclustered OS products sprinkled into some
// entries, so product counts exceed cluster counts as in the real feed.
var syntheticExtras = []string{
	"cpe:/o:apple:mac_os_x:10.6",
	"cpe:/o:ibm:aix:6.1",
	"cpe:/o:hp:hp-ux:11.31",
	"cpe:/o:sgi:irix:6.5",
	"cpe:/o:cisco:ios:12.4",
}

func (sc *SyntheticCorpus) renderSynthetic(i, year, seq int, distros []osmap.Distro) (*cve.Entry, error) {
	r := newSynRand(sc.Config.Seed, i)
	_ = r.next() // skip the two draws pass 1 consumed
	_ = r.next()

	// Affected-cluster count: heavy-tailed, mostly singles, capped by
	// the universe width.
	k := 1
	switch t := r.intn(1000); {
	case t < 600:
		k = 1
	case t < 800:
		k = 2
	case t < 900:
		k = 3
	case t < 960:
		k = 4 + r.intn(2)
	case t < 995:
		k = 6 + r.intn(3)
	default:
		k = 9 + r.intn(4)
	}
	if k > len(distros) {
		k = len(distros)
	}
	picked := make([]osmap.Distro, 0, k)
	seen := make(map[int]bool, k)
	for len(picked) < k {
		di := r.intn(len(distros))
		if seen[di] {
			continue
		}
		seen[di] = true
		picked = append(picked, distros[di])
	}

	// Component class, locality, validity.
	var class classify.Class
	switch c := r.pct(); {
	case c < 8:
		class = classify.ClassDriver
	case c < 38:
		class = classify.ClassKernel
	case c < 73:
		class = classify.ClassSysSoft
	default:
		class = classify.ClassApplication
	}
	remote := r.pct() < 55
	validity := classify.Valid
	switch v := r.pct(); {
	case v < 93:
		validity = classify.Valid
	case v < 96:
		validity = classify.Unknown
	case v < 98:
		validity = classify.Unspecified
	default:
		validity = classify.Disputed
	}

	// Summary from the calibrated corpus's template vocabulary, so the
	// classifier reproduces the intended class.
	var summary string
	if validity != classify.Valid {
		summary = validityPrefixes[validity] + invalidSubjects[r.intn(len(invalidSubjects))]
	} else {
		templates := summaryTemplates[class]
		actor := "local"
		if remote {
			actor = "remote"
		}
		summary = fmt.Sprintf(templates[r.intn(len(templates))], actor)
	}

	var vector cvss.Vector
	if remote {
		vector = remoteVectors[r.intn(len(remoteVectors))]
	} else {
		vector = localVectors[r.intn(len(localVectors))]
	}

	// Affected products: the release current at the publication year,
	// sometimes also the previous release (cross-release flaws feed the
	// Table VI-style per-release queries).
	var products []cpe.Name
	for _, d := range picked {
		canon := sc.Registry.CanonicalName(d)
		if canon.Product == "" {
			return nil, fmt.Errorf("corpus: no canonical CPE for %v", d)
		}
		versions := sc.releaseVersionsAt(d, year, r.intn(5) == 0)
		for _, v := range versions {
			n := canon
			n.Version = v
			products = append(products, n)
		}
	}
	if r.intn(10) == 0 {
		products = append(products, cpe.MustParse(syntheticExtras[r.intn(len(syntheticExtras))]))
	}

	id, err := cve.ParseID(fmt.Sprintf("CVE-%04d-%d", year, seq))
	if err != nil {
		return nil, err
	}
	return &cve.Entry{
		ID:        id,
		Published: time.Date(year, time.Month(1+r.intn(12)), 1+r.intn(28), 12, 0, 0, 0, time.UTC),
		Summary:   summary,
		CVSS:      vector,
		Products:  products,
	}, nil
}

// releaseVersionsAt returns the distro release current at the year, plus
// the previous one when twoReleases is set (and one exists).
func (sc *SyntheticCorpus) releaseVersionsAt(d osmap.Distro, year int, twoReleases bool) []string {
	releases := sc.Registry.Releases(d)
	if len(releases) == 0 {
		return []string{"1.0"}
	}
	cur, prev := 0, -1
	for i, rel := range releases {
		if rel.Year <= year {
			prev = cur
			cur = i
		}
	}
	out := []string{releases[cur].Version}
	if twoReleases && prev >= 0 && prev != cur {
		out = append(out, releases[prev].Version)
	}
	return out
}
