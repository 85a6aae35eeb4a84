package relstore

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// planCache is the shared, LRU-bounded cache of compiled query plans,
// keyed on the normalized query shape (literals canonicalized to `?`,
// see normalizeSQL). Entries are immutable once published — execution
// binds arguments onto copy-on-write clones — so the cache hands the
// same *compiledQuery to any number of concurrent readers. The counters
// are atomic: the Stmt fast path bumps them without taking the list
// lock.
type planCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // front = most recently used
	entries  map[string]*list.Element // shape -> element holding *compiledQuery

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
}

// defaultPlanCacheCapacity bounds the cache: generous for any realistic
// shape population while keeping a runaway ad-hoc workload from holding
// every plan ever compiled.
const defaultPlanCacheCapacity = 128

func newPlanCache(capacity int) *planCache {
	return &planCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// get returns the cached compilation of a shape when its schema
// generation matches, counting a hit; a missing or stale entry counts a
// miss (stale entries are dropped on sight).
func (pc *planCache) get(shape string, gen uint64) *compiledQuery {
	pc.mu.Lock()
	var c *compiledQuery
	if el, ok := pc.entries[shape]; ok {
		c = el.Value.(*compiledQuery)
		if c.gen != gen {
			pc.order.Remove(el)
			delete(pc.entries, shape)
			c = nil
		} else {
			pc.order.MoveToFront(el)
		}
	}
	pc.mu.Unlock()
	if c == nil {
		pc.misses.Add(1)
		return nil
	}
	pc.hits.Add(1)
	return c
}

// put publishes a compilation, evicting least-recently-used entries
// beyond capacity. Concurrent compilations of one shape may both put;
// the last one wins, which is harmless (the entries are equivalent).
func (pc *planCache) put(c *compiledQuery) {
	pc.mu.Lock()
	if el, ok := pc.entries[c.shape]; ok {
		el.Value = c
		pc.order.MoveToFront(el)
		pc.mu.Unlock()
		return
	}
	pc.entries[c.shape] = pc.order.PushFront(c)
	if pc.order.Len() > pc.capacity {
		back := pc.order.Back()
		pc.order.Remove(back)
		delete(pc.entries, back.Value.(*compiledQuery).shape)
		pc.evictions.Add(1)
	}
	pc.mu.Unlock()
}

// flush drops every entry (DDL or epoch swap invalidation).
func (pc *planCache) flush() {
	pc.mu.Lock()
	pc.order.Init()
	pc.entries = make(map[string]*list.Element)
	pc.mu.Unlock()
	pc.invalidations.Add(1)
}

// PlanCacheStats aggregates the shared plan cache counters. Hits count
// both cache lookups and prepared-statement fast-path reuses; an
// invalidation is one full flush (DDL statement or explicit
// InvalidatePlans call).
type PlanCacheStats struct {
	Size          int
	Capacity      int
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Invalidations uint64
}

func (pc *planCache) stats() PlanCacheStats {
	pc.mu.Lock()
	size, capacity := pc.order.Len(), pc.capacity
	pc.mu.Unlock()
	return PlanCacheStats{
		Size:          size,
		Capacity:      capacity,
		Hits:          pc.hits.Load(),
		Misses:        pc.misses.Load(),
		Evictions:     pc.evictions.Load(),
		Invalidations: pc.invalidations.Load(),
	}
}
