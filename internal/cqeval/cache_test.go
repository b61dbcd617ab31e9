package cqeval

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/obs"
)

// shape returns a trivially distinguishable cachedShape for key-identity
// assertions.
func shape(n int) *cachedShape { return &cachedShape{ok: true, width: n} }

// snap reads the three plan-cache counters.
func snap(st *obs.Stats) (hits, misses, evictions int64) {
	return st.Get(obs.CtrPlanCacheHits), st.Get(obs.CtrPlanCacheMisses), st.Get(obs.CtrPlanCacheEvictions)
}

// TestPlanCacheCountsPinned pins the exact hit/miss/eviction totals of a
// scripted access sequence against a capacity-2 cache, including the LRU
// recency rule: touching an entry protects it from the next eviction.
func TestPlanCacheCountsPinned(t *testing.T) {
	c := newPlanCacheSize(2)
	st := obs.NewStats()
	get := func(key string, n int) *cachedShape {
		return c.do(key, st, func() *cachedShape { return shape(n) })
	}

	// Fill: two misses, no evictions.
	get("a", 1)
	get("b", 2)
	if h, m, e := snap(st); h != 0 || m != 2 || e != 0 {
		t.Fatalf("after fill: hits=%d misses=%d evictions=%d, want 0/2/0", h, m, e)
	}

	// Touch "a" so "b" becomes the LRU victim.
	if s := get("a", 99); s.width != 1 {
		t.Fatalf("hit on a rebuilt the shape: width=%d, want 1", s.width)
	}
	if h, m, e := snap(st); h != 1 || m != 2 || e != 0 {
		t.Fatalf("after touch: hits=%d misses=%d evictions=%d, want 1/2/0", h, m, e)
	}

	// Insert "c": capacity exceeded, evicts "b" (LRU), keeps "a".
	get("c", 3)
	if h, m, e := snap(st); h != 1 || m != 3 || e != 1 {
		t.Fatalf("after insert c: hits=%d misses=%d evictions=%d, want 1/3/1", h, m, e)
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}

	// "a" survived (hit); "b" was evicted (miss + another eviction).
	if s := get("a", 99); s.width != 1 {
		t.Fatalf("a was evicted instead of b: width=%d, want 1", s.width)
	}
	get("b", 4)
	if h, m, e := snap(st); h != 2 || m != 4 || e != 2 {
		t.Fatalf("final: hits=%d misses=%d evictions=%d, want 2/4/2", h, m, e)
	}
}

// TestPlanCacheSingleFlightUnderConcurrency pins the deterministic counter
// contract under parallelism: k concurrent requests for one key record
// exactly one miss and k-1 hits, and every requester observes the same
// shape, even while unrelated keys churn the LRU bound.
func TestPlanCacheSingleFlightUnderConcurrency(t *testing.T) {
	const k = 16
	c := newPlanCacheSize(4)
	st := obs.NewStats()
	var builds int
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]*cachedShape, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.do("hot", st, func() *cachedShape {
				mu.Lock()
				builds++
				mu.Unlock()
				return shape(7)
			})
		}(i)
	}
	wg.Wait()
	if builds != 1 {
		t.Fatalf("hot key built %d times, want 1 (single-flight)", builds)
	}
	for i, s := range results {
		if s != results[0] {
			t.Fatalf("requester %d got a different shape pointer", i)
		}
	}
	if h, m, _ := snap(st); h != k-1 || m != 1 {
		t.Fatalf("hot key: hits=%d misses=%d, want %d/1", h, m, k-1)
	}
}

// TestPlanCacheNilDisables pins the nil-cache legacy behavior: build on
// every call, no counters.
func TestPlanCacheNilDisables(t *testing.T) {
	var c *planCache
	st := obs.NewStats()
	for i := 0; i < 3; i++ {
		if s := c.do("k", st, func() *cachedShape { return shape(i) }); s.width != i {
			t.Fatalf("nil cache served a cached shape on call %d", i)
		}
	}
	if h, m, e := snap(st); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache recorded counters: hits=%d misses=%d evictions=%d", h, m, e)
	}
}

// TestPlanCacheBoundHolds pins that an adversarial stream of distinct keys
// cannot grow the cache past its cap — the property a long-running server
// depends on — with the eviction counter accounting for every displaced
// entry exactly once.
func TestPlanCacheBoundHolds(t *testing.T) {
	const cap, stream = 8, 100
	c := newPlanCacheSize(cap)
	st := obs.NewStats()
	for i := 0; i < stream; i++ {
		c.do(fmt.Sprintf("k%d", i), st, func() *cachedShape { return shape(i) })
	}
	if got := c.len(); got != cap {
		t.Fatalf("cache grew to %d entries, cap is %d", got, cap)
	}
	if h, m, e := snap(st); h != 0 || m != stream || e != stream-cap {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 0/%d/%d", h, m, e, stream, stream-cap)
	}
}

// TestShapeKeyCollisionRegression replays the two-call sequence that used to
// panic: without length prefixes [U(a), U(b)] and [U("a\x00|b")] rendered
// the same key, so the second call was served the first call's two-bag join
// tree for a one-atom query.
func TestShapeKeyCollisionRegression(t *testing.T) {
	d := db.New()
	d.Insert("U", "1")
	eng := Yannakakis()
	two := []cq.Atom{cq.NewAtom("U", cq.V("a")), cq.NewAtom("U", cq.V("b"))}
	one := []cq.Atom{cq.NewAtom("U", cq.V("a\x00|b"))}
	if rows := eng.Project(two, d, nil, []string{"a", "b"}); len(rows) != 1 {
		t.Fatalf("two-atom query: rows = %v, want 1", rows)
	}
	rows := eng.Project(one, d, nil, []string{"a\x00|b"})
	if len(rows) != 1 || rows[0]["a\x00|b"] != "1" {
		t.Fatalf("one-atom query: rows = %v, want one row binding the variable to 1", rows)
	}
}

// TestShapeKeyInjectiveProperty: distinct variable shapes get distinct keys,
// over random variable lists drawn from an alphabet that contains the key's
// own separator and digit bytes.
func TestShapeKeyInjectiveProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	alphabet := []string{"a", "b", "|", "\x00", ":", "1", "2", "0"}
	name := func() string {
		var b strings.Builder
		for n := 1 + rng.Intn(4); n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	seen := map[string]string{} // key -> shape rendered unambiguously
	for i := 0; i < 20000; i++ {
		atoms := make([]cq.Atom, 1+rng.Intn(3))
		var vars []string
		for j := range atoms {
			args := make([]cq.Term, 1+rng.Intn(3))
			for k := range args {
				args[k] = cq.V(name())
			}
			atoms[j] = cq.NewAtom("R", args...)
			vars = append(vars, fmt.Sprintf("%q", atoms[j].Vars()))
		}
		want := strings.Join(vars, ";")
		key := shapeKey("jt", atoms, nil)
		if prev, ok := seen[key]; ok && prev != want {
			t.Fatalf("key %q shared by shapes %s and %s", key, prev, want)
		}
		seen[key] = want
	}
}
