package store

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versiondb/internal/graph"
)

// gatedBackend wraps a Backend so tests can hold every Get at a known
// program point — the gate-solver idiom applied to the physical layer.
// While armed, the first Get signals entry and every Get blocks until the
// release channel is closed.
type gatedBackend struct {
	Backend
	mu      sync.Mutex
	entered chan struct{} // buffered; one token per Get entry while armed
	release chan struct{} // closed by the test to let Gets proceed
	gets    atomic.Int64
}

func newGatedBackend(b Backend) *gatedBackend { return &gatedBackend{Backend: b} }

// Arm installs fresh channels; close the returned release channel to let
// blocked (and future) Gets proceed.
func (g *gatedBackend) Arm() (entered <-chan struct{}, release chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entered = make(chan struct{}, 64)
	g.release = make(chan struct{})
	return g.entered, g.release
}

func (g *gatedBackend) Get(id ID) ([]byte, error) {
	g.gets.Add(1)
	g.mu.Lock()
	entered, release := g.entered, g.release
	g.mu.Unlock()
	if entered != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release
	}
	return g.Backend.Get(id)
}

// TestConcurrentColdCheckoutsCoalesce proves the singleflight claim under
// -race: N concurrent cold checkouts of one version perform exactly one
// chain replay — chain-length delta applications and chain-length+0 blob
// fetches in total, not N of each. The backend gate holds the leader
// mid-materialization until every other goroutine has provably passed the
// cache fast path, so all of them must coalesce onto the leader's flight.
func TestConcurrentColdCheckoutsCoalesce(t *testing.T) {
	const n = 8          // versions; deepest sits behind n-1 deltas
	const checkouts = 16 // concurrent cold checkouts of the deepest version
	gate := newGatedBackend(NewMemStore())
	l, payloads := linearLayout(t, gate, n)
	l.SetCache(NewVersionCacheBytes(1 << 20))
	buildGets := gate.gets.Load() // Put verification reads, if any

	entered, release := gate.Arm()
	var wg sync.WaitGroup
	results := make([][]byte, checkouts)
	errs := make([]error, checkouts)
	for i := 0; i < checkouts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = l.Checkout(n - 1)
		}(i)
	}
	// The leader is inside backend.Get, holding the flight open.
	<-entered
	// Every goroutine records one cache miss on the fast path before it can
	// join the flight, and the leader's chain walk counts none. Once the
	// total reaches checkouts, all followers are committed to coalescing.
	deadline := time.Now().Add(10 * time.Second)
	for l.Cache().Stats().Misses < checkouts {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d cache misses (have %d)", checkouts, l.Cache().Stats().Misses)
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < checkouts; i++ {
		if errs[i] != nil {
			t.Fatalf("checkout %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[i], payloads[n-1]) {
			t.Fatalf("checkout %d returned wrong payload", i)
		}
	}
	if d := l.DeltaApplications(); d != n-1 {
		t.Errorf("%d concurrent cold checkouts applied %d deltas, want exactly one chain replay (%d)", checkouts, d, n-1)
	}
	if reads := gate.gets.Load() - buildGets; reads != n {
		t.Errorf("%d concurrent cold checkouts fetched %d blobs, want exactly one chain (%d)", checkouts, reads, n)
	}
	if br := l.BlobReads(); br != n {
		t.Errorf("BlobReads = %d, want %d", br, n)
	}
}

// TestCheckoutAdmitsOnlyRequested: a buffered cold checkout admits the
// version asked for and no chain node below it, even with room to spare —
// the one admission rule the streaming path shares — and a stream of that
// version afterwards is an exact hit that replays nothing.
func TestCheckoutAdmitsOnlyRequested(t *testing.T) {
	const n = 6
	l, payloads := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCacheBytes(1 << 20))
	if got, err := l.Checkout(n - 1); err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("cold Checkout(%d): %v", n-1, err)
	}
	if e := l.Cache().Stats().Entries; e != 1 {
		t.Fatalf("cold checkout left %d entries resident, want 1 (the requested version)", e)
	}
	deltas, reads := l.DeltaApplications(), l.BlobReads()
	rc, size, err := l.CheckoutStream(n - 1)
	if err != nil {
		t.Fatalf("CheckoutStream(%d): %v", n-1, err)
	}
	defer rc.Close()
	if size != int64(len(payloads[n-1])) {
		t.Errorf("stream size = %d, want %d (an exact hit knows its size)", size, len(payloads[n-1]))
	}
	if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("stream of %d: %v", n-1, err)
	}
	if d, r := l.DeltaApplications()-deltas, l.BlobReads()-reads; d != 0 || r != 0 {
		t.Errorf("exact-hit stream applied %d deltas and read %d blobs, want 0 and 0", d, r)
	}
}

// corruptLayout builds a layout whose entries 0↔1 form a parent cycle,
// entry 2 is materialized, and entry 3 chains cleanly onto 2.
func corruptLayout(t *testing.T) *Layout {
	t.Helper()
	s := NewMemStore()
	id, err := s.Put([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	return &Layout{backend: s, Entries: []Entry{
		{Parent: 1, Blob: id, StoredBytes: 10},
		{Parent: 0, Blob: id, StoredBytes: 20},
		{Parent: -1, Materialized: true, Blob: id, StoredBytes: 30},
		{Parent: 2, Blob: id, StoredBytes: 40},
	}}
}

// TestCorruptChainTerminates is the regression test for the cold-cost
// accounting loops: ChainCosts on a cyclic parent chain must terminate
// (reporting -1) with the same guard Checkout has, and the healthy part of
// the layout keeps reporting correctly.
func TestCorruptChainTerminates(t *testing.T) {
	l := corruptLayout(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		work, hops := l.ChainCosts()
		if work[0] != -1 || work[1] != -1 || hops[0] != -1 {
			t.Errorf("ChainCosts on a cycle: work[0]=%d work[1]=%d hops[0]=%d, want -1", work[0], work[1], hops[0])
		}
		// The healthy subtree is unaffected.
		if work[2] != 30 || work[3] != 70 || hops[3] != 1 {
			t.Errorf("ChainCosts: work[2]=%d work[3]=%d hops[3]=%d, want 30, 70, 1", work[2], work[3], hops[3])
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cold-cost accounting did not terminate on a cyclic parent chain")
	}
	if _, err := l.Checkout(0); err == nil {
		t.Error("Checkout on a cyclic chain succeeded")
	}
	if _, err := l.CheckoutAll(context.Background()); err == nil {
		t.Error("CheckoutAll on a cyclic chain succeeded")
	}
}

// TestCheckoutAllCycleWithCleanSubtree: the dangerous corruption shape —
// a parent cycle alongside a healthy subtree that completes without any
// error. CheckoutAll must detect the unreachable versions up front and
// return the cycle error rather than waiting forever for work that can
// never become ready (a hang here would wedge a background Optimize
// snapshot permanently).
func TestCheckoutAllCycleWithCleanSubtree(t *testing.T) {
	s := NewMemStore()
	blob := []byte("root-payload\n")
	id, err := s.Put(blob)
	if err != nil {
		t.Fatal(err)
	}
	l := &Layout{backend: s, Entries: []Entry{
		{Parent: 1, Blob: id, StoredBytes: len(blob)},
		{Parent: 0, Blob: id, StoredBytes: len(blob)},
		{Parent: -1, Materialized: true, Blob: id, StoredBytes: len(blob)},
	}}
	done := make(chan error, 1)
	go func() {
		_, err := l.CheckoutAll(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("CheckoutAll succeeded despite an unreachable cycle")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CheckoutAll hung on a cycle whose reachable subtree completes cleanly")
	}
}

// TestCacheCountsOneLookupPerCheckout: the cache's hits and misses count
// checkouts, not the ancestors a chain walk probes. A cold buffered
// checkout and a cold stream of a 6-deep chain each add exactly one miss,
// a hit adds exactly one hit, and a cold checkout that finds a cached
// ancestor adds one miss and no hit — but still promotes that ancestor,
// so the admission it makes evicts another entry instead.
func TestCacheCountsOneLookupPerCheckout(t *testing.T) {
	const n = 7 // version 6 sits 6 deltas below the root
	l, payloads := linearLayout(t, NewMemStore(), n)
	counts := func() (uint64, uint64) {
		cs := l.Cache().Stats()
		return cs.Hits, cs.Misses
	}
	check := func(what string, hits0, misses0, dh, dm uint64) {
		t.Helper()
		if h, m := counts(); h-hits0 != dh || m-misses0 != dm {
			t.Errorf("%s: hits +%d, misses +%d; want +%d, +%d", what, h-hits0, m-misses0, dh, dm)
		}
	}

	l.SetCache(NewVersionCacheBytes(1 << 20))
	h, m := counts()
	if got, err := l.Checkout(n - 1); err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("cold Checkout(%d): %v", n-1, err)
	}
	check("cold buffered checkout", h, m, 0, 1)
	h, m = counts()
	if _, err := l.Checkout(n - 1); err != nil {
		t.Fatal(err)
	}
	check("buffered hit", h, m, 1, 0)

	l.SetCache(NewVersionCacheBytes(1 << 20))
	h, m = counts()
	if got := drainStream(t, l, n-1); !bytes.Equal(got, payloads[n-1]) {
		t.Fatal("cold stream payload diverged")
	}
	check("cold stream", h, m, 0, 1)
	h, m = counts()
	drainStream(t, l, n-1)
	check("stream hit", h, m, 1, 0)

	// Two slots: 3 is resident and least recent, 1 most recent. A cold
	// checkout of 6 replays from 3, which the walk promotes, so admitting 6
	// evicts 1 rather than 3.
	l.SetCache(NewVersionCache(2))
	for _, v := range []int{3, 1} {
		if _, err := l.Checkout(v); err != nil {
			t.Fatal(err)
		}
	}
	h, m = counts()
	deltas := l.DeltaApplications()
	if got, err := l.Checkout(n - 1); err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("Checkout(%d) over a cached ancestor: %v", n-1, err)
	}
	check("cold checkout over a cached ancestor", h, m, 0, 1)
	if d := l.DeltaApplications() - deltas; d != n-1-3 {
		t.Errorf("replay from cached 3 applied %d deltas, want %d", d, n-1-3)
	}
	if _, ok := l.cache.peek(3); !ok {
		t.Errorf("the ancestor the replay started from was not promoted: evicted by the admission of %d", n-1)
	}
	if _, ok := l.cache.peek(1); ok {
		t.Errorf("version 1 survived; the admission of %d should have evicted it", n-1)
	}
}

// TestDeepColdChainDoesNotFlushHotSet: a cold checkout admits only the
// version asked for, never the intermediate versions its chain replays. A
// deep cold checkout against a full version-count LRU must cost the hot
// set at most the one slot the requested version itself claims.
func TestDeepColdChainDoesNotFlushHotSet(t *testing.T) {
	const n = 12
	l, _ := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCache(4))
	// Prime the hot set: versions 0..3 resident.
	for v := 0; v <= 3; v++ {
		if _, err := l.Checkout(v); err != nil {
			t.Fatal(err)
		}
	}
	// Deep cold checkout: chain 4..11 replays on top of cached 3.
	if _, err := l.Checkout(n - 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.cache.peek(n - 1); !ok {
		t.Errorf("requested version %d not admitted", n-1)
	}
	resident := 0
	for v := 1; v <= 3; v++ {
		if _, ok := l.cache.peek(v); ok {
			resident++
		}
	}
	if resident != 3 {
		t.Errorf("deep cold checkout flushed the hot set: only %d of 3 recent hot versions survive", resident)
	}
}

// TestOutOfRangeParentTerminates: a parent index outside the entry table is
// the other corruption mode; every accessor must fail cleanly.
func TestOutOfRangeParentTerminates(t *testing.T) {
	s := NewMemStore()
	id, err := s.Put([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	l := &Layout{backend: s, Entries: []Entry{
		{Parent: 7, Blob: id, StoredBytes: 10},
		{Parent: -1, Materialized: true, Blob: id, StoredBytes: 30},
	}}
	if work, hops := l.ChainCosts(); work[0] != -1 || hops[0] != -1 {
		t.Errorf("ChainCosts: work=%d hops=%d, want -1", work[0], hops[0])
	}
	if _, err := l.Checkout(0); err == nil {
		t.Error("Checkout with out-of-range parent succeeded")
	}
	if _, err := l.CheckoutAll(context.Background()); err == nil {
		t.Error("CheckoutAll with out-of-range parent succeeded")
	}
}

// TestChainCostsMemoExtension: the DP memo covers appended entries (the
// commit path mutates Entries directly) and agrees with a from-scratch
// walk on random layouts.
func TestChainCostsMemoExtension(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		payloads := chainPayloads(rng, n)
		s := NewMemStore()
		l, err := BuildLayout(s, payloads, randomStorageTree(rng, n), false, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertCosts := func() {
			work, hops := l.ChainCosts()
			for v := range l.Entries {
				wantW, wantH := walkChain(l, v)
				if work[v] != wantW || hops[v] != wantH {
					t.Fatalf("seed %d v%d: memo (%d,%d) != walk (%d,%d)", seed, v, work[v], hops[v], wantW, wantH)
				}
			}
		}
		assertCosts() // cold build
		// Append entries the way a commit does, alternating materialized
		// and delta placements, re-checking the memo extension each time.
		for extra := 0; extra < 3; extra++ {
			blob := []byte(fmt.Sprintf("extra-%d\n", extra))
			id, err := s.Put(blob)
			if err != nil {
				t.Fatal(err)
			}
			e := Entry{Parent: -1, Materialized: true, Blob: id, StoredBytes: len(blob)}
			if extra%2 == 1 {
				e = Entry{Parent: rng.Intn(len(l.Entries)), Blob: id, StoredBytes: len(blob)}
			}
			l.Entries = append(l.Entries, e)
			assertCosts()
		}
	}
}

// walkChain is the naive O(chain) reference implementation the memo must
// agree with.
func walkChain(l *Layout, v int) (work int64, hops int) {
	for u := v; ; u = l.Entries[u].Parent {
		work += int64(l.Entries[u].StoredBytes)
		if l.Entries[u].Materialized {
			return work, hops
		}
		hops++
	}
}

// BenchmarkColdCostAccounting pits the memoized DP against the naive
// per-version chain walk that WeightedPhi and Stats used to pay on every
// call — the O(n) vs O(n·chain) gap, largest on deep (linear) layouts.
func BenchmarkColdCostAccounting(b *testing.B) {
	const n = 2048
	rng := rand.New(rand.NewSource(9))
	payloads := chainPayloads(rng, n)
	tr := graph.NewTree(n+1, 0)
	for v := 1; v <= n; v++ {
		tr.SetEdge(graph.Edge{From: v - 1, To: v})
	}
	l, err := BuildLayout(NewMemStore(), payloads, tr, false, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("memo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			work, _ := l.ChainCosts()
			if work[n-1] <= 0 {
				b.Fatal("bad memo")
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var total int64
			for v := 0; v < n; v++ {
				w, _ := walkChain(l, v)
				total += w
			}
			if total <= 0 {
				b.Fatal("bad walk")
			}
		}
	})
}

// BenchmarkCheckoutAllParallel measures the bulk materialization behind
// Optimize snapshots on a branchy layout, where independent subtrees let
// the worker pool run wide.
func BenchmarkCheckoutAllParallel(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(5))
	payloads := chainPayloads(rng, n)
	l, err := BuildLayout(NewMemStore(), payloads, randomStorageTree(rng, n), false, nil)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := l.CheckoutAll(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) != n {
			b.Fatal("short result")
		}
	}
}
