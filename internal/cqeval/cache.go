package cqeval

import (
	"container/list"
	"slices"
	"strconv"
	"strings"
	"sync"

	"wdpt/internal/cq"
	"wdpt/internal/obs"
)

// The structural part of a plan — join-tree parents, decomposition bags,
// GHD covers — depends only on the *variable shape* of the instantiated
// atom sequence: cq.AtomsHypergraph reads nothing but each atom's variable
// set. A prepared query looks its shape up once; one-shot calls (the
// decision modes, once per node CQ and candidate) plan the same handful of
// shapes over and over, so caching them turns that planning cost into a map
// lookup. Bag *contents* (rows) always rebuild: they depend on the database
// and the pre-binding.

// cachedShape is one memoized structural plan. ok=false records a negative
// result (e.g. "this shape is not acyclic"). All slices are shared between
// the cache and the plans served from it, and are treated as read-only.
type cachedShape struct {
	ok     bool
	parent []int
	order  []int
	bags   [][]string // each bag's variables, sorted
	covers [][]int    // GHDs: covering atom indexes per bag
	width  int        // 1 for a join tree, max |bag|-1 for a tree decomposition, the width a GHD search succeeded at
}

// cacheEntry pairs a shape with a ready channel so that concurrent requests
// for the same key coalesce (single-flight): the first requester builds the
// shape, later requesters wait on ready and are served from the cache. This
// keeps the plan-cache counters deterministic under parallel evaluation — k
// requests for one shape always record exactly one miss and k-1 hits, the
// same totals a sequential run records.
type cacheEntry struct {
	key   string
	ready chan struct{}
	shape *cachedShape
}

// planCache memoizes structural plans keyed on strategy + variable shape,
// bounded at max entries with least-recently-used eviction — a long-running
// server fed an adversarial stream of distinct query shapes must not grow
// without limit. Safe for concurrent use; a nil *planCache disables caching
// (engines built as bare struct literals still work, they just re-plan every
// call).
type planCache struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element // each element holds a *cacheEntry
	lru *list.List               // front = most recently used
}

// maxCachedShapes is the default cache bound; WDPT workloads reuse a handful
// of node shapes, so eviction only matters for adversarial streams of
// distinct queries.
const maxCachedShapes = 512

func newPlanCache() *planCache {
	return newPlanCacheSize(maxCachedShapes)
}

// newPlanCacheSize returns a cache bounded at max entries (values < 1 fall
// back to the default bound).
func newPlanCacheSize(max int) *planCache {
	if max < 1 {
		max = maxCachedShapes
	}
	return &planCache{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

// len returns the number of cached shapes (including in-flight builds).
func (c *planCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// do returns the shape for key, invoking build on the first request and
// coalescing concurrent requests onto that single build. The builder counts
// one cache miss (plus whatever build itself records); every other requester
// counts one cache hit and refreshes the entry's recency. Inserting into a
// full cache evicts the least recently used entries, one eviction counter
// tick each; an evicted in-flight build still completes and serves its
// waiters, it just is no longer findable. A nil cache invokes build on every
// call and records neither hits nor misses — the legacy uncached behavior.
func (c *planCache) do(key string, st *obs.Stats, build func() *cachedShape) *cachedShape {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		<-e.ready
		st.Inc(obs.CtrPlanCacheHits)
		return e.shape
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.m[key] = c.lru.PushFront(e)
	for len(c.m) > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
		st.Inc(obs.CtrPlanCacheEvictions)
	}
	c.mu.Unlock()
	st.Inc(obs.CtrPlanCacheMisses)
	e.shape = build()
	close(e.ready)
	return e.shape
}

// shapeKey builds the cache key for the variable shape atoms have once the
// variables in bound are instantiated: the strategy prefix, then per atom a
// '|' and each of its remaining variables, in first-occurrence order, as
// length ':' name. The length prefix keeps the key injective whatever bytes
// a variable name holds.
func shapeKey(prefix string, atoms []cq.Atom, bound []string) string {
	// Pre-size from the argument lists (an upper bound for names under 100
	// bytes) so a typical key is one allocation.
	size := len(prefix)
	for _, a := range atoms {
		size++
		for _, t := range a.Args {
			if t.IsVar() {
				size += len(t.Value()) + 3
			}
		}
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(prefix)
	for _, a := range atoms {
		b.WriteByte('|')
		for p, t := range a.Args {
			if !t.IsVar() || slices.Contains(bound, t.Value()) || slices.Contains(a.Args[:p], t) {
				continue
			}
			b.WriteString(strconv.Itoa(len(t.Value())))
			b.WriteByte(':')
			b.WriteString(t.Value())
		}
	}
	return b.String()
}
