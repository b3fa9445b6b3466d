package store

import (
	"bytes"
	"container/list"
	"sync"
)

// LRU is the repository's one byte-budget LRU, generic over its key. The
// serving path keys it by version index (VersionCache); the remote tier
// keys it by object key for its near-tier object cache.
//
// On the serving path it caps the effective recreation cost Φ: a checkout
// whose version (or any chain ancestor) is cached replays only the deltas
// below the cached node — zero for an exact hit. Entries arrive by one
// rule: the checkout of v and the commit of v both admit v, never the
// chain nodes a replay passes through. A version's bytes do not depend on
// the layout that stores them and ids are append-only, so one cache
// serves a repository for its whole life, across Optimize's layout swaps;
// only a reset to another history empties it (Clear).
//
// The cache is bounded one of two ways. The compatibility mode bounds the
// *number* of resident entries (NewVersionCache); the byte-budget mode
// bounds the *sum of entry sizes* (NewVersionCacheBytes, NewLRUBytes),
// which is what a memory envelope actually wants — a few large entries can
// no longer crowd the budget silently while tiny ones under-use it. In
// byte-budget mode an entry larger than the whole budget bypasses
// admission entirely: caching it would evict every other resident entry
// for a single value that cannot be hot enough to deserve the whole
// envelope.
//
// The cache is safe for concurrent use. Put shares the value it is given
// (PutCopy copies it); callers must treat cached values, and checkout
// results, as read-only.
type LRU[K comparable] struct {
	mu          sync.Mutex
	capVersions int        // > 0 bounds entry count (compatibility mode)
	budgetBytes int64      // > 0 bounds Σ len(payload) (byte-budget mode)
	bytes       int64      // resident payload bytes
	ll          *list.List // front = most recently used
	items       map[K]*list.Element

	hits, misses, evictions uint64
	// gen counts Clears, so an admission prepared before one is refused
	// (see putSince).
	gen uint64
}

// VersionCache is the serving path's LRU of materialized version payloads,
// keyed by version index.
type VersionCache = LRU[int]

type cacheItem[K comparable] struct {
	key     K
	payload []byte
}

// CacheStats is a point-in-time snapshot of an LRU's counters and
// occupancy. Hits and Misses are cumulative lookup outcomes; Evictions
// counts entries pushed out by either bound (refreshes and oversized
// bypasses are not evictions). BytesResident ≤ BudgetBytes holds whenever
// BudgetBytes > 0 — the budget is a hard ceiling, not a target.
type CacheStats struct {
	Hits          uint64
	Misses        uint64
	Evictions     uint64
	Entries       int
	BytesResident int64
	BudgetBytes   int64 // 0 in version-count mode
	CapVersions   int   // 0 in byte-budget mode
}

// HitRatio returns hits / (hits + misses), 0 before any lookup.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewVersionCache returns an LRU holding at most capacity payloads — the
// version-count compatibility mode. Capacity ≤ 0 yields a nil cache,
// meaning "disabled".
func NewVersionCache(capacity int) *VersionCache {
	if capacity <= 0 {
		return nil
	}
	return &VersionCache{capVersions: capacity, ll: list.New(), items: map[int]*list.Element{}}
}

// NewVersionCacheBytes returns a version LRU whose resident payloads never
// sum to more than budget bytes. Budget ≤ 0 yields a nil cache, meaning
// "disabled".
func NewVersionCacheBytes(budget int64) *VersionCache { return NewLRUBytes[int](budget) }

// NewLRUBytes returns an LRU whose resident values never sum to more than
// budget bytes. Budget ≤ 0 yields a nil cache, meaning "disabled".
func NewLRUBytes[K comparable](budget int64) *LRU[K] {
	if budget <= 0 {
		return nil
	}
	return &LRU[K]{budgetBytes: budget, ll: list.New(), items: map[K]*list.Element{}}
}

// Get returns the cached payload for k, promoting it to most recently
// used. A nil cache always misses without counting.
func (c *LRU[K]) Get(k K) ([]byte, bool) { return c.lookup(k, true, true) }

// peek returns k's payload without promoting it or counting the lookup
// (introspection for tests and invariants).
func (c *LRU[K]) peek(k K) ([]byte, bool) { return c.lookup(k, false, false) }

func (c *LRU[K]) lookup(k K, count, promote bool) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if count {
		if ok {
			c.hits++
		} else {
			c.misses++
		}
	}
	if !ok {
		return nil, false
	}
	if promote {
		c.ll.MoveToFront(el)
	}
	return el.Value.(*cacheItem[K]).payload, true
}

// Put inserts or refreshes k's payload, evicting least recently used
// entries until both bounds hold. In byte-budget mode a payload larger
// than the entire budget is not admitted (and evicts a stale entry for the
// same key rather than refreshing it).
func (c *LRU[K]) Put(k K, payload []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(k, payload)
}

// PutCopy puts a private copy of payload, for a caller that keeps its
// buffer: a commit admitting the bytes it was handed. A payload Put would
// refuse is not copied.
func (c *LRU[K]) PutCopy(k K, payload []byte) {
	if lim := c.admissionLimit(); lim == 0 || lim > 0 && int64(len(payload)) > lim {
		return
	}
	c.Put(k, bytes.Clone(payload))
}

// putSince is Put for an admission prepared at generation gen: it admits
// nothing once a Clear has run since, so a cold stream that outlives a
// reset cannot bring back bytes of the history the reset replaced.
func (c *LRU[K]) putSince(gen uint64, k K, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.gen == gen {
		c.putLocked(k, payload)
	}
}

// generation returns the number of Clears so far, for putSince.
func (c *LRU[K]) generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Clear drops every entry in place, releasing its byte charge. Bounds and
// counters stay; dropped entries are not evictions.
func (c *LRU[K]) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.items)
	c.bytes = 0
	c.gen++
}

// putLocked is Put's body; the caller holds c.mu.
func (c *LRU[K]) putLocked(k K, payload []byte) {
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
	if c.budgetBytes > 0 && int64(len(payload)) > c.budgetBytes {
		return // oversized: bypass admission
	}
	c.insertLocked(k, payload)
	for (c.capVersions > 0 && c.ll.Len() > c.capVersions) || (c.budgetBytes > 0 && c.bytes > c.budgetBytes) {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// Remove drops k's entry, if resident, releasing its byte charge. It is
// not an eviction.
func (c *LRU[K]) Remove(k K) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.removeLocked(el)
	}
}

// insertLocked links a new most-recently-used entry; the caller holds c.mu.
func (c *LRU[K]) insertLocked(k K, payload []byte) {
	c.items[k] = c.ll.PushFront(&cacheItem[K]{key: k, payload: payload})
	c.bytes += int64(len(payload))
}

// removeLocked unlinks one entry and releases its byte charge; the caller
// holds c.mu.
func (c *LRU[K]) removeLocked(el *list.Element) {
	it := el.Value.(*cacheItem[K])
	c.ll.Remove(el)
	delete(c.items, it.key)
	c.bytes -= int64(len(it.payload))
}

// admissionLimit is the largest payload Put could ever admit: the byte
// budget in byte-budget mode, unlimited (-1) in version-count mode, zero
// for a nil (disabled) cache. The streaming cache tee uses it to stop
// buffering a payload that could never be admitted anyway. budgetBytes is
// immutable after construction, so no lock is needed.
func (c *LRU[K]) admissionLimit() int64 {
	if c == nil {
		return 0
	}
	if c.budgetBytes > 0 {
		return c.budgetBytes
	}
	return -1
}

// Stats returns a snapshot of the cache's counters and occupancy. A nil
// cache reports all zeros.
func (c *LRU[K]) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Entries:       c.ll.Len(),
		BytesResident: c.bytes,
		BudgetBytes:   c.budgetBytes,
		CapVersions:   c.capVersions,
	}
}
