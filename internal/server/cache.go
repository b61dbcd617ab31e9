package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"wdpt/internal/cq"
	"wdpt/internal/obs"
)

// resultCache is the server's bounded response cache: complete response
// bodies keyed by a digest of (dataset version, query text as sent, mode,
// options), evicted in least-recently-used order at the entry cap or the
// byte budget, whichever binds first. Because the dataset version is part
// of the key, a registry reload invalidates every cached response for the
// reloaded data without any explicit flush — stale entries simply stop
// being addressable and age out of the LRU.
//
// Only status-200 bodies are cached: they are deterministic for their key
// (the engine's byte-identical enumeration contract), whereas truncated
// (206) bodies may keep a scheduling-dependent subset at parallelism > 1,
// and counter-carrying bodies change run to run. A nil *resultCache
// disables caching.
type resultCache struct {
	max      int
	maxBytes int64 // max × cacheBytesPerEntry
	st       *obs.Stats

	mu    sync.Mutex
	m     map[resultKey]*list.Element
	lru   *list.List
	bytes int64 // sum of len(body) over the cached entries
}

// cacheBytesPerEntry derives the cache's byte budget from its entry cap:
// 64 KiB per entry, 16 MiB at the default -cache 256. The entry cap alone
// lets resident memory scale with answer-set size (256 bodies of ~3 000
// answers are ~50 MB), so a server that answers faster fills its cache,
// and grows its RSS, faster.
const cacheBytesPerEntry = 64 << 10

// resultKey is the SHA-256 digest that addresses one cached body; see
// cacheKey.
type resultKey [sha256.Size]byte

// cachedBody is one cached response body.
type cachedBody struct {
	key  resultKey
	body []byte
}

// newResultCache returns a cache bounded at max entries and max ×
// cacheBytesPerEntry body bytes recording server.* counters on st, or nil
// (caching disabled) when max < 1.
func newResultCache(max int, st *obs.Stats) *resultCache {
	if max < 1 {
		return nil
	}
	return &resultCache{max: max, maxBytes: int64(max) * cacheBytesPerEntry, st: st,
		m: make(map[resultKey]*list.Element), lru: list.New()}
}

// get returns the cached body for key, counting a hit or miss. A nil cache
// always misses silently.
func (c *resultCache) get(key resultKey) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.m[key]
	var body []byte
	if ok {
		c.lru.MoveToFront(el)
		body = el.Value.(*cachedBody).body
	}
	c.mu.Unlock()
	if ok {
		c.st.Inc(obs.CtrServerCacheHits)
		return body, true
	}
	c.st.Inc(obs.CtrServerCacheMisses)
	return nil, false
}

// put stores a response body for key, evicting least-recently-used entries
// until both the entry cap and the byte budget hold. No-op on a nil cache,
// when the key is already present, or when the body alone exceeds the whole
// byte budget (caching it would evict everything else and then itself).
func (c *resultCache) put(key resultKey, body []byte) {
	if c == nil || int64(len(body)) > c.maxBytes {
		return
	}
	var evicted int64
	c.mu.Lock()
	if _, ok := c.m[key]; !ok {
		c.m[key] = c.lru.PushFront(&cachedBody{key: key, body: body})
		c.bytes += int64(len(body))
		for len(c.m) > c.max || c.bytes > c.maxBytes {
			oldest := c.lru.Remove(c.lru.Back()).(*cachedBody)
			delete(c.m, oldest.key)
			c.bytes -= int64(len(oldest.body))
			evicted++
		}
	}
	c.mu.Unlock()
	c.st.Add(obs.CtrServerCacheEvictions, evicted)
}

// len returns the number of cached responses.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// cacheKey builds the result-cache key for one request against one dataset
// snapshot: a SHA-256 digest over every input that can change the response
// body, each field length-prefixed so no two requests share a preimage. The
// query enters as the text sent, not as a parsed tree, so a hit needs no
// parse; textual variants of one query get separate entries.
func cacheKey(ds *Dataset, req *Request, h cq.Mapping, par int) resultKey {
	b := make([]byte, 0, 256)
	str := func(s string) {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	str(ds.Name)
	b = binary.AppendVarint(b, ds.Version)
	str(req.Query)
	str(req.Mode)
	str(req.Engine)
	b = binary.AppendVarint(b, int64(par))
	if req.Fallback {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if bs := req.Budget; bs != nil {
		b = append(b, 1)
		b = binary.AppendVarint(b, bs.WallMS)
		b = binary.AppendVarint(b, bs.MaxTuples)
		b = binary.AppendVarint(b, bs.MaxAnswers)
	} else {
		b = append(b, 0)
	}
	// h is the normalized candidate mapping; its key is itself
	// length-prefixed per variable and value.
	str(h.Key())
	return sha256.Sum256(b)
}
