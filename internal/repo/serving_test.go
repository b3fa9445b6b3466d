package repo

// Serving fast-lane tests: the byte-budgeted checkout cache on the
// repository path, its survival across copy-on-write layout swaps, and
// the serving telemetry (blob reads, cache occupancy) GET /stats builds
// on.

import (
	"context"
	"sync"
	"testing"

	"versiondb/internal/solve"
)

// TestByteCacheSettingSurvivesSwap mirrors TestCacheSettingSurvivesSwap
// for the byte-budgeted mode: the post-swap layout must serve from the
// same byte-budgeted cache, not a version-count one.
func TestByteCacheSettingSurvivesSwap(t *testing.T) {
	r := newRepo(t)
	r.EnableCacheBytes(1 << 20)
	seedRepo(t, r, 5)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "mst"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if _, err := r.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if _, err := r.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	m := r.CacheMetrics()
	if m.Hits == 0 {
		t.Errorf("post-swap cache recorded no hits (%+v) — cache lost in the swap", m)
	}
	if m.BudgetBytes != 1<<20 {
		t.Errorf("post-swap budget = %d, want %d (mode not preserved)", m.BudgetBytes, 1<<20)
	}
	if m.BytesResident <= 0 || m.BytesResident > m.BudgetBytes {
		t.Errorf("resident bytes %d outside (0, budget %d]", m.BytesResident, m.BudgetBytes)
	}
}

// TestServingTelemetry: blob reads count cold checkout I/O, stay flat on
// cache hits, and survive a layout swap monotonically; Stats carries the
// cache occupancy the byte-budget tuner needs.
func TestServingTelemetry(t *testing.T) {
	r := newRepo(t)
	seedRepo(t, r, 6)
	// Installed after the commits, which would have admitted what they
	// wrote, so the first checkout is cold.
	r.EnableCacheBytes(1 << 20)
	if _, err := r.Checkout(5); err != nil {
		t.Fatal(err)
	}
	cold := r.BlobReads()
	if cold == 0 {
		t.Fatal("cold checkout performed no blob reads")
	}
	if _, err := r.Checkout(5); err != nil {
		t.Fatal(err)
	}
	if got := r.BlobReads(); got != cold {
		t.Errorf("hot checkout added blob reads: %d → %d", cold, got)
	}
	st := r.Stats()
	if st.BlobReads != cold {
		t.Errorf("Stats.BlobReads = %d, want %d", st.BlobReads, cold)
	}
	if st.CacheEntries == 0 || st.CacheBytes == 0 {
		t.Errorf("Stats reports empty cache after checkouts: %+v", st)
	}
	if st.CacheBudgetBytes != 1<<20 {
		t.Errorf("Stats.CacheBudgetBytes = %d, want %d", st.CacheBudgetBytes, 1<<20)
	}

	// A swap retires the layout; the counter must not go backwards. The
	// new layout keeps the cache, so version 5's first post-swap checkout
	// is still a hit and adds no serving-path blob reads.
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "mst"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if got := r.BlobReads(); got < cold {
		t.Errorf("BlobReads went backwards across swap: %d → %d", cold, got)
	}
	before := r.BlobReads()
	if _, err := r.Checkout(5); err != nil {
		t.Fatal(err)
	}
	if got := r.BlobReads(); got != before {
		t.Errorf("resident hot version paid serving-path blob reads after swap (%d → %d)", before, got)
	}
}

// TestConcurrentCheckoutsShareOneMaterialization exercises the
// singleflight path through the repository's read lock under -race: many
// goroutines checking out the same cold version must settle on one chain
// replay's worth of delta applications.
func TestConcurrentCheckoutsShareOneMaterialization(t *testing.T) {
	r := newRepo(t)
	r.EnableCacheBytes(1 << 20)
	payloads := seedRepo(t, r, 8)
	base := r.DeltaApplications()
	var wg sync.WaitGroup
	const workers = 12
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := r.Checkout(7)
			if err == nil && string(got) != string(payloads[7]) {
				err = errSentinelWrongPayload
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	applied := r.DeltaApplications() - base
	if max := int64(len(payloads) - 1); applied > max {
		t.Errorf("%d concurrent checkouts applied %d deltas, want ≤ one chain replay (%d)", workers, applied, max)
	}
}

var errSentinelWrongPayload = errSentinel("wrong payload")

type errSentinel string

func (e errSentinel) Error() string { return string(e) }
