package core

import (
	"runtime"
	"sync"

	"osdiversity/internal/classify"
)

// This file holds the Study's worker pool and result cache. The bitset
// engine (bitset.go) and ingestion fan work out through
// runShards/reduceShards, which split a range across a bounded worker
// pool and merge per-shard partials in shard order so the result is
// deterministic at any worker count. Completed tables are
// memoized behind a sync.Once-style cache keyed by (query, profile,
// args), so repeated benchmark/CLI invocations are near-free.

// minParallelItems is the slice length below which sharding is not
// worth the goroutine fan-out and the serial body runs instead.
const minParallelItems = 64

// WithParallelism sets the worker count used for ingestion and the
// table queries. n <= 0 selects GOMAXPROCS; the default is 1.
func WithParallelism(n int) Option {
	return func(s *Study) { s.workerCount.Store(int32(normWorkers(n))) }
}

// SetParallelism changes the worker count of an existing Study. Tables
// already cached are kept: every worker count produces identical results.
func (s *Study) SetParallelism(n int) { s.workerCount.Store(int32(normWorkers(n))) }

// Parallelism reports the effective worker count.
func (s *Study) Parallelism() int { return s.workers() }

func normWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// workers reads the count once; an unset field (zero) means serial.
func (s *Study) workers() int {
	if n := int(s.workerCount.Load()); n > 1 {
		return n
	}
	return 1
}

func (s *Study) isParallel() bool { return s.workers() > 1 }

// query identifiers for the result cache.
const (
	qValidity = iota
	qClass
	qTotals
	qPairs
	qParts
	qPeriods
	qTemporal
	qKWiseClusters
	qKWiseProducts
	qWindowPairs
	qWindowTotals
	qPairsAll
	qMostShared
	qPopulation
	qPopulationWindow
)

// ckey identifies one memoized table: the query, the profile filter and
// up to two integer arguments (split year, window bounds, distro index).
type ckey struct {
	q       uint8
	profile Profile
	a, b    int
}

type cacheEntry struct {
	once sync.Once
	val  any
}

// cached returns the memoized result for k, computing it at most once
// per cache generation. Concurrent callers of the same key block on a
// single computation (single-flight).
func (s *Study) cached(k ckey, compute func() any) any {
	s.cacheMu.Lock()
	if s.cache == nil {
		s.cache = make(map[ckey]*cacheEntry)
	}
	e, ok := s.cache[k]
	if !ok {
		e = &cacheEntry{}
		s.cache[k] = e
	}
	s.cacheMu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

// ClearCache drops every memoized table and attack population (the
// columnar bitset index and release postings are structural, not
// results, and are kept). The record set is immutable, so this is only
// needed to benchmark the raw compute paths.
func (s *Study) ClearCache() {
	s.cacheMu.Lock()
	s.cache = nil
	s.cacheMu.Unlock()
}

// capWorkers bounds a CPU-bound fan-out at the machine's parallelism:
// extra goroutines beyond GOMAXPROCS only add scheduling overhead and
// per-shard aggregate churn.
func capWorkers(workers int) int {
	if g := runtime.GOMAXPROCS(0); workers > g {
		return g
	}
	return workers
}

// runShards splits [0, n) into one contiguous range per worker and runs
// body on each concurrently.
func runShards(workers, n int, body func(lo, hi int)) {
	workers = capWorkers(workers)
	if workers <= 1 || n < minParallelItems {
		body(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// reduceShards partitions recs across the worker pool, runs body over
// each shard into a fresh aggregate, and merges the partials in shard
// order. With one worker (or a short slice) it degenerates to a single
// pass with no goroutines.
func reduceShards[A any](workers int, recs []record, newAgg func() A, body func(agg A, shard []record), merge func(dst, src A)) A {
	workers = capWorkers(workers)
	dst := newAgg()
	if workers <= 1 || len(recs) < minParallelItems {
		body(dst, recs)
		return dst
	}
	if workers > len(recs) {
		workers = len(recs)
	}
	chunk := (len(recs) + workers - 1) / workers
	nShards := (len(recs) + chunk - 1) / chunk
	parts := make([]A, nShards)
	var wg sync.WaitGroup
	for i := 0; i < nShards; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > len(recs) {
			hi = len(recs)
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			a := newAgg()
			body(a, recs[lo:hi])
			parts[i] = a
		}(i, lo, hi)
	}
	wg.Wait()
	for i := 0; i < nShards; i++ {
		merge(dst, parts[i])
	}
	return dst
}

// validityIdx maps an invalid record's validity state to its Table I
// column (unknown, unspecified, disputed).
func validityIdx(v classify.Validity) int {
	switch v {
	case classify.Unknown:
		return 0
	case classify.Unspecified:
		return 1
	default: // Disputed
		return 2
	}
}

// classIdx maps a component class to its Table II column, or -1 for
// classes outside the paper's four (which every count skips).
func classIdx(c classify.Class) int {
	switch c {
	case classify.ClassDriver:
		return 0
	case classify.ClassKernel:
		return 1
	case classify.ClassSysSoft:
		return 2
	case classify.ClassApplication:
		return 3
	default:
		return -1
	}
}

func mergeIntSlice(dst, src []int) {
	for i := range dst {
		dst[i] += src[i]
	}
}
