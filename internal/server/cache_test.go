package server

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"wdpt/internal/obs"
)

// k derives a cache key from a test label.
func k(label string) resultKey { return sha256.Sum256([]byte(label)) }

// counts reads the three server cache counters.
func counts(st *obs.Stats) (hits, misses, evictions int64) {
	return st.Get(obs.CtrServerCacheHits), st.Get(obs.CtrServerCacheMisses), st.Get(obs.CtrServerCacheEvictions)
}

func TestResultCacheLRUAndCounters(t *testing.T) {
	st := obs.NewStats()
	c := newResultCache(2, st)
	if _, ok := c.get(k("a")); ok {
		t.Fatal("empty cache hit")
	}
	c.put(k("a"), []byte("A"))
	c.put(k("b"), []byte("B"))
	if body, ok := c.get(k("a")); !ok || string(body) != "A" {
		t.Fatalf("get(a) = %q ok=%v", body, ok)
	}
	// "a" is now most recent; inserting "c" evicts "b".
	c.put(k("c"), []byte("C"))
	if _, ok := c.get(k("b")); ok {
		t.Fatal("LRU victim b still cached")
	}
	if body, ok := c.get(k("a")); !ok || string(body) != "A" {
		t.Fatalf("recently used a evicted: %q ok=%v", body, ok)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// misses: a(empty), b(after eviction); hits: a, a; evictions: b.
	if h, m, e := counts(st); h != 2 || m != 2 || e != 1 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 2/2/1", h, m, e)
	}
	// Re-putting an existing key is a no-op (first body wins).
	c.put(k("a"), []byte("A2"))
	if body, _ := c.get(k("a")); string(body) != "A" {
		t.Fatalf("re-put replaced body: %q", body)
	}
}

// TestResultCacheByteBudget pins the byte bound: a cache of 2 entries holds
// at most 2 × 64 KiB of bodies, eviction is LRU-first until both bounds
// hold, and a body larger than the whole budget is refused without
// disturbing what is cached.
func TestResultCacheByteBudget(t *testing.T) {
	st := obs.NewStats()
	c := newResultCache(4, st)
	budget := 4 * cacheBytesPerEntry
	body := func(n int) []byte { return make([]byte, n) }

	// Three bodies of 3/8 budget: the third pushes the total to 9/8, so the
	// least recently used — "b", since "a" was just read — goes first, and
	// one eviction is enough although the entry cap (4) never binds.
	c.put(k("a"), body(budget*3/8))
	c.put(k("b"), body(budget*3/8))
	if _, ok := c.get(k("a")); !ok {
		t.Fatal("a not cached")
	}
	c.put(k("c"), body(budget*3/8))
	if _, ok := c.get(k("b")); ok {
		t.Fatal("LRU victim b survived a byte-budget overflow")
	}
	for _, name := range []string{"a", "c"} {
		if _, ok := c.get(k(name)); !ok {
			t.Fatalf("%s evicted: the byte bound evicted more than it had to", name)
		}
	}
	if _, _, e := counts(st); e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}

	// A body at the full budget is admitted and evicts everything else,
	// oldest first.
	c.put(k("d"), body(budget))
	if c.len() != 1 {
		t.Fatalf("len = %d after a budget-sized body, want 1", c.len())
	}
	if _, _, e := counts(st); e != 3 {
		t.Fatalf("evictions = %d, want 3 (a and c made room for d)", e)
	}

	// One byte more is refused before insertion: d stays, nothing is
	// evicted, and the oversize key is a plain miss.
	c.put(k("huge"), body(budget+1))
	if _, ok := c.get(k("huge")); ok {
		t.Fatal("body larger than the whole budget was cached")
	}
	if _, ok := c.get(k("d")); !ok {
		t.Fatal("refusing an oversize body disturbed the cached entry")
	}
	if _, _, e := counts(st); e != 3 || c.len() != 1 {
		t.Fatalf("evictions = %d, len = %d after the refusal, want 3 and 1", e, c.len())
	}
}

// TestResultCacheHoldsHotRepeat pins that the byte budget leaves the
// benchmark's hot_repeat workload untouched at the default -cache 256: its
// 64 bodies (~2.3 MB, four of them ~0.5 MB) all stay resident.
func TestResultCacheHoldsHotRepeat(t *testing.T) {
	st := obs.NewStats()
	c := newResultCache(256, st) // the wdptd -cache default
	var total int
	for i := 0; i < 64; i++ {
		n := 5 << 10
		if i%16 == 0 {
			n = 512 << 10
		}
		total += n
		c.put(k(fmt.Sprint(i)), make([]byte, n))
	}
	if total < 2300<<10 || int64(total) > c.maxBytes {
		t.Fatalf("fixture is %d bytes, want between 2.3 MB and the %d-byte budget", total, c.maxBytes)
	}
	if _, _, e := counts(st); e != 0 || c.len() != 64 {
		t.Fatalf("evictions = %d, len = %d, want 0 and 64", e, c.len())
	}
}

func TestResultCacheNilDisabled(t *testing.T) {
	st := obs.NewStats()
	c := newResultCache(0, st)
	if c != nil {
		t.Fatal("size 0 did not disable the cache")
	}
	c.put(k("a"), []byte("A"))
	if _, ok := c.get(k("a")); ok {
		t.Fatal("nil cache hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has entries")
	}
	if h, m, e := counts(st); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache recorded counters: %d/%d/%d", h, m, e)
	}
}

// TestCacheKeyDiscriminates pins that every response-shaping input — dataset
// version, query, mode, engine, parallelism, fallback, budget, mapping —
// produces a distinct key, so a registry reload or option change can never
// serve a stale body; and that bytes shifted between adjacent fields never
// reproduce a key.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := func() (*Dataset, *Request) {
		return &Dataset{Name: "d", Version: 1},
			&Request{Query: "Q", Mode: "enumerate", Engine: "auto", Mapping: map[string]string{"x": "1"}}
	}
	ds, req := base()
	ref := cacheKey(ds, req, req.Mapping, 1)

	mutations := map[string]func(ds *Dataset, req *Request) (par int){
		"version":     func(ds *Dataset, req *Request) int { ds.Version = 2; return 1 },
		"dataset":     func(ds *Dataset, req *Request) int { ds.Name = "e"; return 1 },
		"query":       func(ds *Dataset, req *Request) int { req.Query = "Q2"; return 1 },
		"query text":  func(ds *Dataset, req *Request) int { req.Query = " Q"; return 1 },
		"mode":        func(ds *Dataset, req *Request) int { req.Mode = "maximal"; return 1 },
		"engine":      func(ds *Dataset, req *Request) int { req.Engine = "naive"; return 1 },
		"parallelism": func(ds *Dataset, req *Request) int { return 8 },
		"fallback":    func(ds *Dataset, req *Request) int { req.Fallback = true; return 1 },
		"budget":      func(ds *Dataset, req *Request) int { req.Budget = &BudgetSpec{MaxTuples: 5}; return 1 },
		"zero budget": func(ds *Dataset, req *Request) int { req.Budget = &BudgetSpec{}; return 1 },
		"mapping":     func(ds *Dataset, req *Request) int { req.Mapping["x"] = "2"; return 1 },
	}
	for name, mutate := range mutations {
		ds, req := base()
		par := mutate(ds, req)
		if got := cacheKey(ds, req, req.Mapping, par); got == ref {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
	// And identical inputs agree.
	ds2, req2 := base()
	if cacheKey(ds2, req2, req2.Mapping, 1) != ref {
		t.Error("identical inputs produced different keys")
	}

	// Adjacent fields: moving bytes across a field boundary must change the
	// key, which a plain concatenation would not.
	shifts := []struct {
		name string
		a, b func(ds *Dataset, req *Request)
	}{
		{"dataset|query",
			func(ds *Dataset, req *Request) { ds.Name, req.Query = "a", "bc" },
			func(ds *Dataset, req *Request) { ds.Name, req.Query = "ab", "c" }},
		{"query|mode",
			func(ds *Dataset, req *Request) { req.Query, req.Mode = "Qe", "numerate" },
			func(ds *Dataset, req *Request) { req.Query, req.Mode = "Q", "enumerate" }},
		{"mode|engine",
			func(ds *Dataset, req *Request) { req.Mode, req.Engine = "a", "bc" },
			func(ds *Dataset, req *Request) { req.Mode, req.Engine = "ab", "c" }},
		{"dataset|mode with an empty query",
			func(ds *Dataset, req *Request) { ds.Name, req.Query, req.Mode = "a", "", "bc" },
			func(ds *Dataset, req *Request) { ds.Name, req.Query, req.Mode = "ab", "", "c" }},
		{"mapping name|value",
			func(ds *Dataset, req *Request) { req.Mapping = map[string]string{"x": "yz"} },
			func(ds *Dataset, req *Request) { req.Mapping = map[string]string{"xy": "z"} }},
	}
	for _, sh := range shifts {
		dsA, reqA := base()
		sh.a(dsA, reqA)
		dsB, reqB := base()
		sh.b(dsB, reqB)
		if cacheKey(dsA, reqA, reqA.Mapping, 1) == cacheKey(dsB, reqB, reqB.Mapping, 1) {
			t.Errorf("%s: bytes shifted across the boundary share a key", sh.name)
		}
	}
}
