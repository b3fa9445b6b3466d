package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"versiondb/internal/graph"
)

func TestVersionCacheHitAndEviction(t *testing.T) {
	c := NewVersionCache(2)
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	if got, ok := c.Get(1); !ok || string(got) != "one" {
		t.Fatalf("Get(1) = %q, %v", got, ok)
	}
	// 2 is now least recently used; inserting 3 evicts it.
	c.Put(3, []byte("three"))
	if _, ok := c.Get(2); ok {
		t.Errorf("evicted entry 2 still present")
	}
	if _, ok := c.Get(1); !ok {
		t.Errorf("recently used entry 1 evicted")
	}
	if _, ok := c.Get(3); !ok {
		t.Errorf("fresh entry 3 missing")
	}
	cs := c.Stats()
	if cs.Hits != 3 || cs.Misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 3/1", cs.Hits, cs.Misses)
	}
	if cs.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", cs.Evictions)
	}
	if cs.Entries != 2 || cs.CapVersions != 2 || cs.BudgetBytes != 0 {
		t.Errorf("occupancy = %+v, want 2 entries in version-count mode", cs)
	}
	// Refreshing an existing key must not grow the cache.
	c.Put(3, []byte("three'"))
	if n := c.Stats().Entries; n != 2 {
		t.Errorf("entries after refresh = %d, want 2", n)
	}
	if got, _ := c.Get(3); string(got) != "three'" {
		t.Errorf("refresh did not replace payload: %q", got)
	}
}

func TestNilVersionCacheIsDisabled(t *testing.T) {
	c := NewVersionCache(0)
	if c != nil {
		t.Fatalf("capacity 0 should yield nil cache")
	}
	c.Put(1, []byte("x")) // must not panic
	if _, ok := c.Get(1); ok {
		t.Errorf("nil cache returned a hit")
	}
	if cs := c.Stats(); cs != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zeros", cs)
	}
	if c := NewVersionCacheBytes(0); c != nil {
		t.Fatalf("byte budget 0 should yield nil cache")
	}
}

// keyKinds runs a generic LRU check once per key type the cache serves:
// version indexes on the checkout path, object keys in the remote tier's
// near-tier chunk and manifest cache.
func keyKinds(t *testing.T, versions func(*testing.T), objects func(*testing.T)) {
	t.Run("version", versions)
	t.Run("object", objects)
}

func versionKey(i int) int   { return i }
func objectKey(i int) string { return fmt.Sprintf("c/%04x", i) }

// TestByteBudgetNeverExceeded: under a randomized put/get/remove stress
// the resident bytes never exceed the configured budget, and the tracked
// byte count always equals the sum of the resident payload lengths — so
// Remove releases exactly the entry's charge.
func TestByteBudgetNeverExceeded(t *testing.T) {
	keyKinds(t,
		func(t *testing.T) { byteBudgetStress(t, versionKey) },
		func(t *testing.T) { byteBudgetStress(t, objectKey) })
}

func byteBudgetStress[K comparable](t *testing.T, key func(int) K) {
	const budget = 1 << 12
	c := NewLRUBytes[K](budget)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0, 1:
			// Sizes straddle the budget so oversized bypass is exercised.
			size := rng.Intn(budget + budget/2)
			c.Put(key(rng.Intn(64)), make([]byte, size))
		case 2:
			c.Get(key(rng.Intn(64)))
		case 3:
			c.Remove(key(rng.Intn(64)))
		}
		cs := c.Stats()
		if cs.BytesResident > budget {
			t.Fatalf("op %d: resident %d bytes exceeds budget %d", i, cs.BytesResident, budget)
		}
		var sum int64
		for v := 0; v < 64; v++ {
			if p, ok := c.peek(key(v)); ok {
				sum += int64(len(p))
			}
		}
		if sum != cs.BytesResident {
			t.Fatalf("op %d: tracked %d bytes, actual resident %d", i, cs.BytesResident, sum)
		}
	}
	if cs := c.Stats(); cs.Evictions == 0 {
		t.Errorf("stress run recorded no evictions; budget never pressured")
	}
}

// TestOversizedPayloadBypassesAdmission: a payload larger than the whole
// budget must not be admitted — and must not evict the resident set to
// make room for itself. A stale smaller payload under the same key is
// dropped rather than refreshed.
func TestOversizedPayloadBypassesAdmission(t *testing.T) {
	keyKinds(t,
		func(t *testing.T) { oversizedBypass(t, versionKey) },
		func(t *testing.T) { oversizedBypass(t, objectKey) })
}

func oversizedBypass[K comparable](t *testing.T, key func(int) K) {
	c := NewLRUBytes[K](100)
	c.Put(key(1), make([]byte, 40))
	c.Put(key(2), make([]byte, 40))
	c.Put(key(3), make([]byte, 101)) // oversized: bypass
	if _, ok := c.Get(key(3)); ok {
		t.Errorf("oversized payload was admitted")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Errorf("oversized bypass evicted resident entry 1")
	}
	if _, ok := c.Get(key(2)); !ok {
		t.Errorf("oversized bypass evicted resident entry 2")
	}
	// Refreshing an existing key with an oversized payload drops the stale
	// entry instead of serving outdated bytes.
	c.Put(key(2), make([]byte, 200))
	if _, ok := c.Get(key(2)); ok {
		t.Errorf("stale entry survived an oversized refresh")
	}
	if cs := c.Stats(); cs.BytesResident != 40 {
		t.Errorf("resident bytes = %d, want 40", cs.BytesResident)
	}
}

// TestByteBudgetRefreshRecharges: refreshing a key with a different-size
// payload recharges the byte account and re-evicts as needed; re-putting
// identical content (the remote tier re-admitting a content-addressed
// chunk) keeps a single charge; Remove releases the entry's charge.
func TestByteBudgetRefreshRecharges(t *testing.T) {
	keyKinds(t,
		func(t *testing.T) { refreshRecharges(t, versionKey) },
		func(t *testing.T) { refreshRecharges(t, objectKey) })
}

func refreshRecharges[K comparable](t *testing.T, key func(int) K) {
	c := NewLRUBytes[K](100)
	c.Put(key(1), make([]byte, 30))
	c.Put(key(2), make([]byte, 30))
	c.Put(key(2), make([]byte, 30)) // identical content: one charge
	if cs := c.Stats(); cs.BytesResident != 60 || cs.Entries != 2 {
		t.Fatalf("after identical re-put: %+v, want 60 bytes in 2 entries", cs)
	}
	c.Put(key(1), make([]byte, 70)) // grows 1; 70+30 = 100 still fits
	if cs := c.Stats(); cs.BytesResident != 100 || cs.Entries != 2 {
		t.Fatalf("after refresh: %+v, want 100 bytes in 2 entries", c.Stats())
	}
	c.Put(key(1), make([]byte, 80)) // 80+30 > 100 → LRU (2) evicted
	if _, ok := c.Get(key(2)); ok {
		t.Errorf("entry 2 survived over-budget refresh of 1")
	}
	if cs := c.Stats(); cs.BytesResident != 80 || cs.Entries != 1 {
		t.Errorf("after over-budget refresh: %+v, want 80 bytes in 1 entry", cs)
	}
	c.Remove(key(1))
	c.Remove(key(1)) // absent: no-op
	if cs := c.Stats(); cs.BytesResident != 0 || cs.Entries != 0 || cs.Evictions != 1 {
		t.Errorf("after Remove: %+v, want empty with the one earlier eviction", cs)
	}
}

// linearLayout stores n chained versions: version 0 materialized, each
// later one a delta off its predecessor.
func linearLayout(t *testing.T, b Backend, n int) (*Layout, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	payloads := chainPayloads(rng, n)
	tr := graph.NewTree(n+1, 0)
	for v := 1; v <= n; v++ {
		tr.SetEdge(graph.Edge{From: v - 1, To: v})
	}
	l, err := BuildLayout(b, payloads, tr, false, nil)
	if err != nil {
		t.Fatalf("BuildLayout: %v", err)
	}
	return l, payloads
}

func TestCheckoutCacheSkipsDeltaReplay(t *testing.T) {
	const n = 6
	l, payloads := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCache(4))

	// Cold checkout of the deepest version replays the full chain.
	got, err := l.Checkout(n - 1)
	if err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("cold Checkout: %v", err)
	}
	if d := l.DeltaApplications(); d != n-1 {
		t.Fatalf("cold checkout applied %d deltas, want %d", d, n-1)
	}
	// Hot checkout of the same version must apply zero deltas.
	got, err = l.Checkout(n - 1)
	if err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("hot Checkout: %v", err)
	}
	if d := l.DeltaApplications(); d != n-1 {
		t.Errorf("hot checkout applied %d extra deltas, want 0", d-(n-1))
	}
	if cs := l.Cache().Stats(); cs.Hits == 0 {
		t.Errorf("hot checkout did not hit the cache")
	}
}

func TestCheckoutUsesCachedAncestor(t *testing.T) {
	const n = 6
	l, payloads := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCache(4))

	// Prime version 2: 2 delta applications (1 and 2 onto materialized 0).
	if _, err := l.Checkout(2); err != nil {
		t.Fatal(err)
	}
	if d := l.DeltaApplications(); d != 2 {
		t.Fatalf("priming applied %d deltas, want 2", d)
	}
	// Checking out 4 should replay only 3 and 4 on top of cached 2.
	got, err := l.Checkout(4)
	if err != nil || !bytes.Equal(got, payloads[4]) {
		t.Fatalf("Checkout(4): %v", err)
	}
	if d := l.DeltaApplications(); d != 4 {
		t.Errorf("ancestor-hit checkout applied %d total deltas, want 4", d)
	}
}

func TestCheckoutWithoutCacheStillCounts(t *testing.T) {
	const n = 4
	l, payloads := linearLayout(t, NewMemStore(), n)
	for i := 0; i < 2; i++ {
		got, err := l.Checkout(n - 1)
		if err != nil || !bytes.Equal(got, payloads[n-1]) {
			t.Fatalf("Checkout: %v", err)
		}
	}
	if d := l.DeltaApplications(); d != 2*(n-1) {
		t.Errorf("uncached checkouts applied %d deltas, want %d", d, 2*(n-1))
	}
}

// TestCacheClear: Clear empties the cache in place — no entries, no bytes
// charged, and nothing counted as an eviction — while its bound and its
// hit and miss counters stay, and it admits again afterwards.
func TestCacheClear(t *testing.T) {
	var nilCache *VersionCache
	nilCache.Clear() // a disabled cache clears as a no-op
	c := NewVersionCacheBytes(64)
	c.Put(1, []byte("one"))
	c.Put(2, []byte("two"))
	c.Get(1)
	c.Get(3)
	c.Clear()
	cs := c.Stats()
	if cs.Entries != 0 || cs.BytesResident != 0 {
		t.Fatalf("after Clear: %d entries, %d bytes; want none", cs.Entries, cs.BytesResident)
	}
	if cs.Hits != 1 || cs.Misses != 1 || cs.Evictions != 0 || cs.BudgetBytes != 64 {
		t.Errorf("after Clear: %+v; want 1 hit, 1 miss, 0 evictions, budget 64", cs)
	}
	if _, ok := c.peek(1); ok {
		t.Error("entry 1 survived Clear")
	}
	c.Put(1, []byte("uno"))
	if p, ok := c.Get(1); !ok || string(p) != "uno" {
		t.Errorf("Get(1) after Clear and Put = %q, %v", p, ok)
	}
}

// TestCachePutCopy: PutCopy admits a private copy, so the caller may reuse
// its buffer; a payload the budget would refuse is neither admitted nor
// copied.
func TestCachePutCopy(t *testing.T) {
	c := NewVersionCacheBytes(8)
	buf := []byte("abcd")
	c.PutCopy(1, buf)
	copy(buf, "wxyz")
	if p, ok := c.peek(1); !ok || string(p) != "abcd" {
		t.Fatalf("cached payload = %q, %v; want the bytes as put", p, ok)
	}
	big := make([]byte, 9)
	if a := testing.AllocsPerRun(100, func() { c.PutCopy(2, big) }); a != 0 {
		t.Errorf("oversized PutCopy allocated %v times per call, want 0", a)
	}
	if _, ok := c.peek(2); ok || c.Stats().BytesResident != 4 {
		t.Errorf("oversized payload admitted: %+v", c.Stats())
	}
	var nilCache *VersionCache
	if a := testing.AllocsPerRun(100, func() { nilCache.PutCopy(1, buf) }); a != 0 {
		t.Errorf("PutCopy on a disabled cache allocated %v times per call, want 0", a)
	}
	counted := NewVersionCache(1)
	counted.PutCopy(1, big)
	if p, ok := counted.peek(1); !ok || len(p) != len(big) {
		t.Errorf("version-count mode refused a payload: %v", ok)
	}
}
