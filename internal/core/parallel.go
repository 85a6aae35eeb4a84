package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"osdiversity/internal/classify"
)

// This file holds the Study's worker pool and result caches. Ingestion
// fans digestion out through runShards, which splits a range across a
// bounded worker pool; the bitset engine (bitset.go) and sealing fan
// out one year segment per task through eachSegment. Every result is an
// integer sum or a per-segment value, so it is identical at any worker
// count. Completed tables are memoized per Study, and raw counts per
// segment, behind sync.Once-style caches keyed by (query, profile,
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

// query identifiers for the result caches. A Study memoizes finished
// tables under them; a segment memoizes its raw counts under the ones
// its rows use (totals, classes, pairs, parts, k-wise histograms), and
// its release postings, ID order and most-shared order.
const (
	qValidity = iota
	qClass
	qClassSums
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
	qRelease
	qByID
)

// ckey identifies one memoized result: the query, the profile filter and
// up to two integer arguments (split year, window bounds, distro index,
// release).
type ckey struct {
	q       uint8
	profile Profile
	a, b    int
}

type cacheEntry struct {
	once sync.Once
	val  any
}

// memo is a result cache: each key is computed at most once per cache
// generation, and concurrent callers of one key block on that single
// computation (single-flight), so two epochs sharing a segment that ask
// for the same raw at once get one computation and one value.
type memo struct {
	mu sync.Mutex
	m  map[ckey]*cacheEntry
}

func (m *memo) get(k ckey, compute func() any) any {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[ckey]*cacheEntry)
	}
	e, ok := m.m[k]
	if !ok {
		e = &cacheEntry{}
		m.m[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val = compute() })
	return e.val
}

func (m *memo) clear() {
	m.mu.Lock()
	clear(m.m)
	m.mu.Unlock()
}

// cached returns the Study's memoized result for k.
func (s *Study) cached(k ckey, compute func() any) any { return s.memo.get(k, compute) }

// ClearCache drops every memoized table and attack population, and the
// raw counts, release postings and ID orders memoized on the Study's
// segments (the posting bitsets are structural, not results, and are
// kept). The record set is immutable, so only tests call it: the
// uncached benchmarks (core, vulndb, the root package) time the raw
// compute paths with it, and the delta tests make an epoch answer from
// its own memory. A segment shared with another epoch loses its memos
// there too; they recompute on the next query.
func (s *Study) ClearCache() {
	s.memo.clear()
	s.relPostings.Clear()
	for _, g := range s.segs {
		g.memo.clear()
	}
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

// eachSegment runs fn once for each of n segments across the worker
// pool, the caller being one of the workers: every worker claims the
// next unclaimed segment, so years of uneven size balance. With one
// worker (or one segment) it runs them in order with no goroutines.
func eachSegment(workers, n int, fn func(i int)) {
	workers = min(capWorkers(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int32
	claim := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
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
