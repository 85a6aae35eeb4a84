package main

import (
	"fmt"
	"hash/crc32"

	"osdiversity"
	"osdiversity/internal/httpapi"
	"osdiversity/internal/vulndb"
)

// references renders the bytes every response must equal: the facade
// builders plus httpapi.Marshal over an analysis built independently of
// the serving system. State 0 is the base corpus (for the gateway, the
// whole unsharded corpus); states 1 and 2 are the base with delta feed A
// or B applied, which is what every reloaded epoch holds.
type references struct {
	spec   osdiversity.SyntheticSpec
	feeds  [2]string
	db     *vulndb.DB // the sql class: results do not depend on the epoch
	states [3]*osdiversity.Analysis
	crcs   map[[2]int32]uint32 // (key, state) -> CRC-32C of the reference body
	// corrupt, when set, rewrites a reference body before it is
	// checksummed; the harness tests use it to prove mismatches surface.
	corrupt func(key int32, body []byte) []byte
}

func (r *references) analysis(state int) (*osdiversity.Analysis, error) {
	if r.states[state] != nil {
		return r.states[state], nil
	}
	var a *osdiversity.Analysis
	var err error
	if state == 0 {
		a, err = osdiversity.LoadSynthetic(r.spec, osdiversity.WithParallelism(workers))
	} else {
		var base *osdiversity.Analysis
		if base, err = r.analysis(0); err == nil {
			a, err = base.ApplyDelta([]string{r.feeds[state-1]})
		}
	}
	if err != nil {
		return nil, fmt.Errorf("reference state %d: %w", state, err)
	}
	r.states[state] = a
	return a, nil
}

// crc returns the checksum of key's reference body in state.
func (r *references) crc(keys []request, key int32, state int) (uint32, error) {
	if r.crcs == nil {
		r.crcs = map[[2]int32]uint32{}
	}
	req := keys[key]
	if req.class == classSQL {
		state = 0
	}
	if c, ok := r.crcs[[2]int32{key, int32(state)}]; ok {
		return c, nil
	}
	a, err := r.analysis(state)
	if err != nil {
		return 0, err
	}
	doc, err := req.build(a, r.db)
	if err != nil {
		return 0, fmt.Errorf("reference %s: %w", req.target, err)
	}
	body, err := httpapi.Marshal(doc)
	if err != nil {
		return 0, err
	}
	if r.corrupt != nil {
		body = r.corrupt(key, body)
	}
	c := crc32.Checksum(body, castagnoli)
	r.crcs[[2]int32{key, int32(state)}] = c
	return c, nil
}

// sampled reports whether the byte check renders an expensive key: a
// seeded draw per key, so the sample does not depend on timing.
func sampled(seed uint64, key int32) bool {
	return rng(seed, streamSample<<32|uint64(key)).IntN(sampleEvery) == 0
}

// checkStats counts what the byte check covered and found.
type checkStats struct {
	checked    map[string]int // distinct (key, epoch) pairs checked, per class
	seen       map[string]int // distinct (key, epoch) pairs answered, per class
	mismatches int            // responses whose bytes differ from the reference
}

// sampleEvery is the share (one in n) of distinct attack and recommend
// keys the byte check renders; every other class is checked in full.
const sampleEvery = 4

// check compares every 2xx response of the phase, per key and per the
// epoch it names, with the reference, and clears ok on each mismatch so
// the response counts as failed. Attack and recommend keys are checked
// on a seeded sample, the rest all.
func (r *references) check(ph *phase, keys []request, seed uint64, st *checkStats) error {
	type obs struct {
		key   int32
		epoch string
	}
	groups := map[obs][]int{}
	for i := range ph.outs {
		if o := &ph.outs[i]; o.ok {
			k := obs{o.key, o.epoch}
			groups[k] = append(groups[k], i)
		}
	}
	for k, idx := range groups {
		class := keys[k.key].class
		st.seen[class]++
		if (class == classAttack || class == classRecommend) && !sampled(seed, k.key) {
			continue
		}
		state, ok := ph.states[k.epoch]
		if !ok {
			return fmt.Errorf("response names epoch %q, which no install or reload produced", k.epoch)
		}
		want, err := r.crc(keys, k.key, state)
		if err != nil {
			return err
		}
		st.checked[class]++
		for _, i := range idx {
			if ph.outs[i].crc != want {
				ph.outs[i].ok = false
				st.mismatches++
			}
		}
	}
	return nil
}
