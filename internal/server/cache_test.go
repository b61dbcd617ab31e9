package server

import (
	"fmt"
	"testing"

	"wdpt/internal/obs"
)

// counts reads the three server cache counters.
func counts(st *obs.Stats) (hits, misses, evictions int64) {
	return st.Get(obs.CtrServerCacheHits), st.Get(obs.CtrServerCacheMisses), st.Get(obs.CtrServerCacheEvictions)
}

func TestResultCacheLRUAndCounters(t *testing.T) {
	st := obs.NewStats()
	c := newResultCache(2, st)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if body, ok := c.get("a"); !ok || string(body) != "A" {
		t.Fatalf("get(a) = %q ok=%v", body, ok)
	}
	// "a" is now most recent; inserting "c" evicts "b".
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU victim b still cached")
	}
	if body, ok := c.get("a"); !ok || string(body) != "A" {
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
	c.put("a", []byte("A2"))
	if body, _ := c.get("a"); string(body) != "A" {
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
	c.put("a", body(budget*3/8))
	c.put("b", body(budget*3/8))
	if _, ok := c.get("a"); !ok {
		t.Fatal("a not cached")
	}
	c.put("c", body(budget*3/8))
	if _, ok := c.get("b"); ok {
		t.Fatal("LRU victim b survived a byte-budget overflow")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s evicted: the byte bound evicted more than it had to", k)
		}
	}
	if _, _, e := counts(st); e != 1 {
		t.Fatalf("evictions = %d, want 1", e)
	}

	// A body at the full budget is admitted and evicts everything else,
	// oldest first.
	c.put("d", body(budget))
	if c.len() != 1 {
		t.Fatalf("len = %d after a budget-sized body, want 1", c.len())
	}
	if _, _, e := counts(st); e != 3 {
		t.Fatalf("evictions = %d, want 3 (a and c made room for d)", e)
	}

	// One byte more is refused before insertion: d stays, nothing is
	// evicted, and the oversize key is a plain miss.
	c.put("huge", body(budget+1))
	if _, ok := c.get("huge"); ok {
		t.Fatal("body larger than the whole budget was cached")
	}
	if _, ok := c.get("d"); !ok {
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
		c.put(fmt.Sprint(i), make([]byte, n))
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
	c.put("a", []byte("A"))
	if _, ok := c.get("a"); ok {
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
// serve a stale body.
func TestCacheKeyDiscriminates(t *testing.T) {
	base := func() (*Dataset, *Request) {
		return &Dataset{Name: "d", Version: 1},
			&Request{Mode: "enumerate", Engine: "auto", Mapping: map[string]string{"x": "1"}}
	}
	ds, req := base()
	ref := cacheKey(ds, "Q", req, req.Mapping, 1)

	mutations := map[string]func(ds *Dataset, req *Request) (canonical string, par int){
		"version":     func(ds *Dataset, req *Request) (string, int) { ds.Version = 2; return "Q", 1 },
		"dataset":     func(ds *Dataset, req *Request) (string, int) { ds.Name = "e"; return "Q", 1 },
		"query":       func(ds *Dataset, req *Request) (string, int) { return "Q2", 1 },
		"mode":        func(ds *Dataset, req *Request) (string, int) { req.Mode = "maximal"; return "Q", 1 },
		"engine":      func(ds *Dataset, req *Request) (string, int) { req.Engine = "naive"; return "Q", 1 },
		"parallelism": func(ds *Dataset, req *Request) (string, int) { return "Q", 8 },
		"fallback":    func(ds *Dataset, req *Request) (string, int) { req.Fallback = true; return "Q", 1 },
		"budget":      func(ds *Dataset, req *Request) (string, int) { req.Budget = &BudgetSpec{MaxTuples: 5}; return "Q", 1 },
		"mapping":     func(ds *Dataset, req *Request) (string, int) { req.Mapping["x"] = "2"; return "Q", 1 },
	}
	for name, mutate := range mutations {
		ds, req := base()
		canonical, par := mutate(ds, req)
		if got := cacheKey(ds, canonical, req, req.Mapping, par); got == ref {
			t.Errorf("mutating %s did not change the cache key", name)
		}
	}
	// And identical inputs agree.
	ds2, req2 := base()
	if cacheKey(ds2, "Q", req2, req2.Mapping, 1) != ref {
		t.Error("identical inputs produced different keys")
	}
}
