package repo

// Streaming checkout at the repository layer: byte equality with the
// buffered path, the recorded per-version hash behind /checkout/raw's
// strong ETag, and the negative-result TTL surviving a copy-on-write
// layout swap.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/store/metalog"
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

// TestVersionHashRecorded: every commit records its payload hash, and
// VersionHash serves it from metadata — a read that appends nothing to
// the log, before or after a reopen.
func TestVersionHashRecorded(t *testing.T) {
	dir := t.TempDir()
	r, err := Init(dir)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	payloads := seedRepo(t, r, 3)
	appends := r.Stats().Log.Appends
	check := func(r *Repo) {
		t.Helper()
		for v, p := range payloads {
			want := string(store.HashBytes(p))
			if got, err := r.VersionHash(v); err != nil || got != want {
				t.Fatalf("VersionHash(%d) = %q, %v; want %q (commit-time hash)", v, got, err, want)
			}
		}
		if _, err := r.VersionHash(99); !errors.Is(err, ErrUnknownVersion) {
			t.Errorf("VersionHash out of range: err = %v, want ErrUnknownVersion", err)
		}
	}
	check(r)
	if got := r.Stats().Log.Appends; got != appends {
		t.Errorf("VersionHash appended %d log records", got-appends)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r2.Close()
	check(r2)
}

// TestReplicaRefusesHashlessVersions: a replica applies the primary's
// state through the same replay as recovery, so a snapshot or a commit
// record whose version has no payload hash is refused and leaves the
// replica as it was.
func TestReplicaRefusesHashlessVersions(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	seedRepo(t, r, 2)
	st := snapshotState{Meta: r.meta, Entries: r.layout.Entries}
	st.Meta.Versions = append([]VersionInfo(nil), st.Meta.Versions...)
	good, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	st.Meta.Versions[1].Hash = ""
	bad, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := OpenReplica(mem)
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	if err := rep.ApplySnapshot(bad, 1); err == nil || !strings.Contains(err.Error(), "no payload hash") {
		t.Errorf("ApplySnapshot(hashless): err = %v, want refusal", err)
	}
	if n := rep.NumVersions(); n != 0 {
		t.Errorf("refused snapshot left %d versions", n)
	}
	if err := rep.ApplySnapshot(good, 1); err != nil {
		t.Fatalf("ApplySnapshot: %v", err)
	}
	v := st.Meta.Versions[1]
	v.ID, v.Parents = 2, []int{1}
	data, err := json.Marshal(commitRecord{Version: v, Entry: st.Entries[1]})
	if err != nil {
		t.Fatal(err)
	}
	applied, err := rep.ApplyRecords([]metalog.Record{{Seq: 2, Type: recCommit, Data: data}})
	if err == nil || !strings.Contains(err.Error(), "no payload hash") || applied != 0 {
		t.Errorf("ApplyRecords(hashless commit) = %d, %v; want 0 and a refusal", applied, err)
	}
	if n := rep.NumVersions(); n != 2 {
		t.Errorf("refused record left %d versions, want 2", n)
	}
}

// flakyBackend counts Gets and fails them on demand, forwarding metadata
// persistence to the embedded MemStore.
type flakyBackend struct {
	*store.MemStore
	fail atomic.Bool
	gets atomic.Int64
}

// GetStream goes through the counted Get below, so a stream cannot bypass
// the outage via MemStore's own GetStream.
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
