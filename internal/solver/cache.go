package solver

// cache.go implements the Solver's instance cache: parsed graphs and
// hypergraphs keyed by a content hash of the raw instance bytes, so
// repeated submissions of a hot instance skip parsing and CSR
// construction entirely. The cache moved here from cmd/cfserve so every
// Solver owner — the HTTP service, the CLIs, library callers — shares one
// implementation. Instances are immutable after construction (see
// internal/graph and internal/hypergraph), which is what makes handing
// the same parsed value to concurrent requests safe. Eviction is plain
// LRU over an entry-count bound; DESIGN.md ("Solver and instance cache")
// records the keying and eviction rationale.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// cacheKey derives the cache key for an instance body: the substrate kind
// and requested format are part of the key because the same bytes could
// in principle parse differently under different format directives.
func cacheKey(kind, format string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(format))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}

// InstanceKey derives the instance-cache key SolveReader and MaxISReader
// would compute for body: the hex sha256 over the substrate kind
// (KindHypergraph for the reduction endpoints, KindGraph for MaxIS), the
// canonical format directive (graphio.Format.String()), and the raw
// bytes. A gateway that buffers request bodies anyway computes it once
// and forwards it, so the backend's keyed readers skip re-hashing.
func InstanceKey(kind, format string, body []byte) string {
	return cacheKey(kind, format, body)
}

// The Instance.Kind spellings, which are also the kind argument of
// InstanceKey.
const (
	KindHypergraph = "hypergraph"
	KindGraph      = "graph"
)

// validInstanceKey reports whether s has the shape of an instance key:
// 64 lowercase hex digits. Keyed readers silently ignore anything else.
func validInstanceKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// instanceCache is a mutex-guarded LRU from content hash to parsed
// instance (*graph.Graph or *hypergraph.Hypergraph).
type instanceCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// cacheEntry is one LRU slot.
type cacheEntry struct {
	key string
	val any
}

// newInstanceCache returns a cache bounded to capacity entries (minimum 1).
func newInstanceCache(capacity int) *instanceCache {
	if capacity < 1 {
		capacity = 1
	}
	return &instanceCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the cached instance for key, promoting it to
// most-recently-used, and records the hit or miss.
func (c *instanceCache) get(key string) (any, bool) {
	v, _, ok := c.getBytes([]byte(key))
	return v, ok
}

// getBytes is get keyed by raw bytes: the map access compiles without
// materialising a key string, and a hit returns the entry's canonical key
// so the caller never allocates one either — the cache-hit serve path
// stays at 0 allocs/op.
func (c *instanceCache) getBytes(key []byte) (val any, canonical string, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.val, e.key, true
}

// put inserts (or refreshes) key → val and evicts the least recently
// used entries beyond capacity.
func (c *instanceCache) put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
	for c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// CacheStats is a point-in-time snapshot of the Solver's instance cache;
// cmd/cfserve exports its counters on GET /metrics.
type CacheStats struct {
	Capacity  int    `json:"capacity"`
	Entries   int    `json:"entries"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// snapshot returns a consistent view of the cache counters.
func (c *instanceCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Entries:   c.order.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
