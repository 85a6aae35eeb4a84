package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"

	"osdiversity"
	"osdiversity/internal/corpus"
	"osdiversity/internal/cve"
	"osdiversity/internal/nvdfeed"
)

// The corpus is the repository's standard synthetic scale; only the seed
// varies between runs.
const (
	corpusDistros = 32
	corpusFrom    = 2002
	corpusTo      = 2025
	// deltaYear is the publication year both delta feeds rewrite: about
	// 550 entries, the size of a few days of NVD's modified feed. It is
	// fixed, not drawn, so every seed reloads the same share of the
	// corpus and reload cost does not vary with the seed.
	deltaYear = 2003
)

// Random streams derived from the seed; each input draws from its own.
const (
	streamRequests = iota + 1
	streamWarm
	streamSample
	streamDeltaA
	streamDeltaB
)

func rng(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// plan is every request a run sends, as indexes into a table of
// distinct requests.
type plan struct {
	keys      []request
	warm      []int32   // sent once each before the warm-up load
	warmSched []int32   // the warm-up load, drawn from its own stream
	sched     []int32   // open loop: one key per slot, a slot every 1/rate seconds
	warmConns [][]int32 // closed loop: the warm-up load per connection
	conns     [][]int32 // closed loop: one key sequence per connection, replayed cyclically
}

type planBuilder struct {
	p   plan
	ids map[string]int32
}

func (b *planBuilder) add(r request) int32 {
	id := r.id()
	if i, ok := b.ids[id]; ok {
		return i
	}
	i := int32(len(b.p.keys))
	b.p.keys = append(b.p.keys, r)
	b.ids[id] = i
	return i
}

// closedSeqLen is the length of each connection's key sequence; a
// closed loop that outruns it starts the sequence over.
const closedSeqLen = 1 << 15

// makePlan draws a workload's requests from the seed. slots and
// warmSlots are the schedule lengths of the timed phase and the warm-up;
// a closed loop splits each schedule between its connections.
func makePlan(wl workload, seed uint64, u universe, slots, warmSlots int, closed bool) plan {
	b := &planBuilder{ids: map[string]int32{}}
	r := rng(seed, streamRequests)
	if wl.mix == nil {
		hot := hotKeys(u)
		for _, k := range hot {
			b.p.warm = append(b.p.warm, b.add(k))
		}
		zipf := rand.NewZipf(r, 1.1, 1, uint64(len(hot)-1))
		for c := 0; c < loadConns; c++ {
			seq := make([]int32, closedSeqLen)
			for i := range seq {
				seq[i] = b.p.warm[zipf.Uint64()]
			}
			b.p.conns = append(b.p.conns, seq)
		}
		b.p.warmConns = b.p.conns
		return b.p
	}
	warm := everyTable(u)
	if wl.sql {
		wr := rng(seed, streamWarm)
		for _, shape := range sqlShapes {
			warm = append(warm, sqlReq(shape(wr, u)))
		}
		warm = append(warm, attackReq([]string{"OpenBSD", "Debian", "Solaris", "Windows2003"}, 50),
			recommendReq(defaultRecommend))
	}
	for _, k := range warm {
		b.p.warm = append(b.p.warm, b.add(k))
	}
	wr := rng(seed, streamWarm)
	b.p.warmSched = make([]int32, warmSlots)
	for i := range b.p.warmSched {
		b.p.warmSched[i] = b.add(wl.mix(wr, u))
	}
	b.p.sched = make([]int32, slots)
	for i := range b.p.sched {
		b.p.sched[i] = b.add(wl.mix(r, u))
	}
	if closed {
		b.p.warmConns = split(b.p.warmSched)
		b.p.conns = split(b.p.sched)
	}
	return b.p
}

// split deals a schedule out to the closed loop's connections.
func split(sched []int32) [][]int32 {
	out := make([][]int32, loadConns)
	for i, k := range sched {
		out[i%loadConns] = append(out[i%loadConns], k)
	}
	return out
}

// deltaFeeds writes the two delta feeds the reloads alternate between.
// Both rewrite the same deltaYear identifiers of the base corpus with
// content from generator seeds derived from the run's seed, so every
// reload changes the corpus and the corpus after a reload depends only
// on which feed it applied: epochs alternate between base+A and base+B.
func deltaFeeds(dir string, spec osdiversity.SyntheticSpec, base []*cve.Entry) ([2]string, error) {
	var paths [2]string
	var years [2][]*cve.Entry
	for i, stream := range []uint64{streamDeltaA, streamDeltaB} {
		sc, err := corpus.GenerateSynthetic(corpus.SyntheticConfig{
			Entries: spec.Entries, Distros: spec.Distros, Seed: rng(spec.Seed, stream).Uint64(),
			FromYear: spec.FromYear, ToYear: spec.ToYear,
		})
		if err != nil {
			return paths, err
		}
		years[i] = entriesOfYear(sc.Entries, deltaYear)
	}
	// Synthetic identifiers of a year are contiguous from one fixed
	// sequence number, so the shortest of the three years bounds the
	// identifiers all three hold.
	n := len(entriesOfYear(base, deltaYear))
	for _, y := range years {
		n = min(n, len(y))
	}
	for i, y := range years {
		paths[i] = filepath.Join(dir, fmt.Sprintf("delta-%c.xml.gz", 'a'+i))
		if err := nvdfeed.WriteFile(paths[i], fmt.Sprintf("CVE-%d", deltaYear), y[:n]); err != nil {
			return paths, err
		}
	}
	return paths, nil
}

// entriesOfYear returns the entries published in year, in ascending
// identifier order.
func entriesOfYear(entries []*cve.Entry, year int) []*cve.Entry {
	for _, g := range corpus.SplitByYear(entries) {
		if g.Year == year {
			return g.Entries
		}
	}
	return nil
}
