package repo

// Streaming checkout at the repository layer: byte equality with the
// buffered path, the persisted per-version hash behind /checkout/raw's
// strong ETag, and the negative-result TTL surviving a copy-on-write
// layout swap.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"sync/atomic"
	"testing"

	"versiondb/internal/solve"
	"versiondb/internal/store"
)

func drainRepoStream(t *testing.T, r *Repo, v int) ([]byte, int64) {
	t.Helper()
	rc, size, err := r.CheckoutStream(v)
	if err != nil {
		t.Fatalf("CheckoutStream(%d): %v", v, err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("drain stream %d: %v", v, err)
	}
	return got, size
}

func TestCheckoutStreamMatchesCheckout(t *testing.T) {
	r, payloads := buildBranchyRepo(t, 11)
	r.EnableCacheBytes(1 << 16)
	for v, want := range payloads {
		got, size := drainRepoStream(t, r, v)
		if !bytes.Equal(got, want) {
			t.Fatalf("stream %d diverges from committed payload", v)
		}
		if size != int64(len(want)) {
			t.Errorf("stream %d size = %d, want %d", v, size, len(want))
		}
		buffered, err := r.Checkout(v)
		if err != nil || !bytes.Equal(buffered, got) {
			t.Fatalf("buffered checkout %d diverges: %v", v, err)
		}
	}
	if _, _, err := r.CheckoutStream(len(payloads)); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("out-of-range stream: err = %v, want ErrUnknownVersion", err)
	}
}

func TestVersionHashRecordedAndBackfilled(t *testing.T) {
	dir := t.TempDir()
	r, err := Init(dir)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	payloads := seedRepo(t, r, 3)
	for v, p := range payloads {
		want := string(store.HashBytes(p))
		got, err := r.VersionHash(v)
		if err != nil || got != want {
			t.Fatalf("VersionHash(%d) = %q, %v; want %q (commit-time hash)", v, got, err, want)
		}
	}
	// A repository written before hashes existed: wipe the recorded hashes
	// and demand a lazy backfill that persists.
	for v := range r.meta.Versions {
		r.meta.Versions[v].Hash = ""
	}
	if err := r.compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	want := string(store.HashBytes(payloads[1]))
	if got, err := r.VersionHash(1); err != nil || got != want {
		t.Fatalf("backfilled VersionHash(1) = %q, %v; want %q", got, err, want)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if h := r2.meta.Versions[1].Hash; h != want {
		t.Errorf("backfilled hash not persisted: %q", h)
	}
	if h := r2.meta.Versions[2].Hash; h != "" {
		t.Errorf("untouched version grew a hash: %q", h)
	}
	if _, err := r.VersionHash(99); !errors.Is(err, ErrUnknownVersion) {
		t.Errorf("VersionHash out of range: err = %v, want ErrUnknownVersion", err)
	}
}

// TestReplicaVersionHashBackfill serves the ETag of a version that
// predates hashes from a replica: the hash is computed in memory, and
// nothing is persisted, since a replica has no log of its own.
func TestReplicaVersionHashBackfill(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	payloads := seedRepo(t, r, 2)
	st := snapshotState{Meta: r.meta, Entries: r.layout.Entries}
	st.Meta.Versions = append([]VersionInfo(nil), st.Meta.Versions...)
	for v := range st.Meta.Versions {
		st.Meta.Versions[v].Hash = ""
	}
	snap, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(mem)
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	if err := rep.ApplySnapshot(snap, 1); err != nil {
		t.Fatalf("ApplySnapshot: %v", err)
	}
	want := string(store.HashBytes(payloads[1]))
	if got, err := rep.VersionHash(1); err != nil || got != want {
		t.Fatalf("replica VersionHash(1) = %q, %v; want %q", got, err, want)
	}
}

// flakyBackend counts Gets and fails them on demand, forwarding metadata
// persistence to the embedded MemStore.
type flakyBackend struct {
	*store.MemStore
	fail atomic.Bool
	gets atomic.Int64
}

// GetStream is shadowed away so the stream path falls back to the counted
// Get above rather than bypassing the outage via MemStore's BlobStreamer.
func (f *flakyBackend) GetStream(id store.ID) (io.ReadCloser, error) {
	blob, err := f.Get(id)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(blob)), nil
}

var errFlakyDown = errSentinel("backend down")

func (f *flakyBackend) Get(id store.ID) ([]byte, error) {
	f.gets.Add(1)
	if f.fail.Load() {
		return nil, errFlakyDown
	}
	return f.MemStore.Get(id)
}

// TestNegativeTTLSurvivesOptimize: the fresh layout Optimize swaps in
// remembers failures too — retries of a failing version inside the TTL are
// absorbed without reaching the backend. (Expiry and heal are covered by
// the store's TestNegativeResultTTL.)
func TestNegativeTTLSurvivesOptimize(t *testing.T) {
	fb := &flakyBackend{MemStore: store.NewMemStore()}
	r, err := InitBackend(fb)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	seedRepo(t, r, 6)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "mst"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}

	fb.fail.Store(true)
	if _, err := r.Checkout(5); !errors.Is(err, errFlakyDown) {
		t.Fatalf("checkout during outage: err = %v, want %v", err, errFlakyDown)
	}
	base := fb.gets.Load()
	for i := 0; i < 4; i++ {
		if _, err := r.Checkout(5); !errors.Is(err, errFlakyDown) {
			t.Fatalf("retry %d: err = %v", i, err)
		}
		if _, _, err := r.CheckoutStream(5); !errors.Is(err, errFlakyDown) {
			t.Fatalf("stream retry %d: err = %v", i, err)
		}
	}
	if got := fb.gets.Load(); got != base {
		t.Fatalf("retries inside TTL reached backend: %d extra gets — TTL lost in swap", got-base)
	}
}
