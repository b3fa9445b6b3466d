package store

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
)

// TestCheckoutAllMatchesCheckout: the bulk memoized materialization agrees
// with per-version Checkout on random layouts, compressed or not.
func TestCheckoutAllMatchesCheckout(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		payloads := chainPayloads(rng, n)
		s := NewMemStore()
		tr := randomStorageTree(rng, n)
		l, err := BuildLayout(s, payloads, tr, seed%2 == 0, nil)
		if err != nil {
			t.Fatalf("seed %d: BuildLayout: %v", seed, err)
		}
		all, err := l.CheckoutAll(context.Background())
		if err != nil {
			t.Fatalf("seed %d: CheckoutAll: %v", seed, err)
		}
		for v := 0; v < n; v++ {
			if !bytes.Equal(all[v], payloads[v]) {
				t.Errorf("seed %d: CheckoutAll[%d] diverges from payload", seed, v)
			}
		}
	}
}

// TestSnapshotIsolatedFromAppendsAndCache: a snapshot sees exactly the
// entries present when it was taken — later appends to the live layout do
// not leak in — and its bulk scan leaves the live cache untouched.
func TestSnapshotIsolatedFromAppendsAndCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	payloads := chainPayloads(rng, n)
	s := NewMemStore()
	tr := randomStorageTree(rng, n)
	l, err := BuildLayout(s, payloads, tr, false, nil)
	if err != nil {
		t.Fatalf("BuildLayout: %v", err)
	}
	l.SetCache(NewVersionCache(4))

	view := l.Snapshot()
	// Mutate the live layout the way a commit does: append an entry.
	extra := []byte("extra,line\n1,2\n")
	id, err := s.Put(extra)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	l.Entries = append(l.Entries, Entry{Parent: -1, Materialized: true, Blob: id, StoredBytes: len(extra)})

	if got := len(view.Entries); got != n {
		t.Fatalf("snapshot grew to %d entries after live append, want %d", got, n)
	}
	all, err := view.CheckoutAll(context.Background())
	if err != nil {
		t.Fatalf("CheckoutAll: %v", err)
	}
	for v := 0; v < n; v++ {
		if !bytes.Equal(all[v], payloads[v]) {
			t.Errorf("snapshot checkout %d diverges", v)
		}
	}
	// The bulk scan must not have populated (or counted against) the live
	// cache, and the snapshot itself has none.
	if cs := l.Cache().Stats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Errorf("live cache touched by snapshot scan: hits=%d misses=%d", cs.Hits, cs.Misses)
	}
	if view.Cache() != nil {
		t.Errorf("snapshot carries a cache")
	}
	if d := view.DeltaApplications(); d != 0 && d == l.DeltaApplications() {
		t.Errorf("snapshot shares the live delta counter")
	}
}

// TestCheckoutAllCanceled: a canceled context aborts the scan.
func TestCheckoutAllCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	payloads := chainPayloads(rng, 4)
	s := NewMemStore()
	l, err := BuildLayout(s, payloads, randomStorageTree(rng, 4), false, nil)
	if err != nil {
		t.Fatalf("BuildLayout: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.CheckoutAll(ctx); err == nil {
		t.Error("CheckoutAll succeeded under a canceled context")
	}
}
