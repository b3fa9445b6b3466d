package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"versiondb/internal/repo"
	"versiondb/internal/store"
)

// newMemClientServer serves a fresh in-memory repository with the checkout
// cache enabled — the configuration the concurrent serving path targets.
func newMemClientServer(t *testing.T) (*Client, *repo.Repo) {
	t.Helper()
	r, err := repo.InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	r.EnableCache(32)
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), r
}

// TestConcurrentCommitsAndCheckouts drives parallel writers and readers
// through the HTTP stack against the in-memory backend. Run with -race:
// the point is that commits, checkouts, log and stats interleave without
// data races and without corrupting any payload.
func TestConcurrentCommitsAndCheckouts(t *testing.T) {
	c, _ := newMemClientServer(t)
	root := payload(t, 42, 40)
	if _, err := c.Commit(repo.DefaultBranch, root, "root"); err != nil {
		t.Fatalf("root commit: %v", err)
	}
	const writers, commitsPer, readers = 4, 5, 4
	// Each writer owns a branch so commits never race on a shared tip.
	for w := 0; w < writers; w++ {
		if err := c.Branch(fmt.Sprintf("w%d", w), 0); err != nil {
			t.Fatalf("Branch w%d: %v", w, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			branch := fmt.Sprintf("w%d", w)
			for i := 0; i < commitsPer; i++ {
				p := payload(t, int64(100*w+i), 40+i)
				if _, err := c.Commit(branch, p, "work"); err != nil {
					errs <- fmt.Errorf("writer %d commit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := c.Checkout(0)
				if err != nil {
					errs <- fmt.Errorf("reader %d checkout: %w", rd, err)
					return
				}
				if !bytes.Equal(got, root) {
					errs <- fmt.Errorf("reader %d: root payload corrupted", rd)
					return
				}
				if _, err := c.Log(); err != nil {
					errs <- fmt.Errorf("reader %d log: %w", rd, err)
					return
				}
				if _, err := c.Stats(); err != nil {
					errs <- fmt.Errorf("reader %d stats: %w", rd, err)
					return
				}
			}
		}(rd)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	log, err := c.Log()
	if err != nil {
		t.Fatalf("final Log: %v", err)
	}
	if want := 1 + writers*commitsPer; len(log) != want {
		t.Errorf("final log has %d versions, want %d", len(log), want)
	}
	// Every committed version must check out byte-identical to a fresh
	// reconstruction (the cache must not serve stale or torn payloads).
	for _, v := range log {
		if _, err := c.Checkout(v.ID); err != nil {
			t.Errorf("Checkout(%d): %v", v.ID, err)
		}
	}
}

// TestConcurrentCheckoutsHitCache hammers one deep version from many
// goroutines and verifies the cache absorbed the replay work.
func TestConcurrentCheckoutsHitCache(t *testing.T) {
	c, r := newMemClientServer(t)
	var want []byte
	for i := 0; i < 8; i++ {
		want = payload(t, int64(i), 30+i)
		if _, err := c.Commit(repo.DefaultBranch, want, "v"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, err := c.Checkout(7)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, want) {
					errs <- errors.New("payload mismatch under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if r.CacheMetrics().Hits == 0 {
		t.Errorf("40 checkouts of one version produced zero cache hits")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.CacheHits == 0 {
		t.Errorf("stats endpoint reports zero cache hits: %+v", st)
	}
}
