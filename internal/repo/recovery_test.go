package repo

// Crash-recovery property tests over the whole repository stack. The
// faultfs wrapper cuts power after a byte budget: blob and document
// writes are all-or-nothing, log appends tear to a prefix. The property:
// for EVERY possible crash point in a fixed workload, reopening from the
// durable state yields either a clean "no repository" (death before the
// init snapshot landed) or a consistent prefix of the workload — every
// recovered version checks out byte-identical, branch records agree with
// the versions that cite them, and the repository accepts new commits.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"slices"
	"testing"
	"time"

	"versiondb/internal/delta"
	"versiondb/internal/store"
	"versiondb/internal/store/faultfs"
	"versiondb/internal/store/remote"
)

// crashWorkload drives a small fixed history: three commits on master, a
// dev branch from v1, one commit on dev. Every step is best-effort — once
// the store has crashed the remaining steps just fail.
func crashWorkload(f *faultfs.Store, payloads [][]byte) {
	r, err := InitBackend(f)
	if err != nil {
		return
	}
	for i, p := range payloads[:3] {
		_, _ = r.Commit(DefaultBranch, p, fmt.Sprintf("c%d", i))
	}
	_ = r.Branch("dev", 1)
	_, _ = r.Commit("dev", payloads[3], "c3")
}

func TestRepoRecoveryEveryCrashPoint(t *testing.T) {
	payloads := [][]byte{
		[]byte("k,v\na,1\nb,2\n"),
		[]byte("k,v\na,1\nb,2\nc,3\n"),
		[]byte("k,v\na,9\nb,2\nc,3\n"),
		[]byte("k,v\na,1\nd,4\n"),
	}

	// Dry run with no budget to measure the workload's total write volume;
	// the sweep then crashes at every byte up to (and past) that bound.
	// Timestamps make record sizes vary by a byte or two between runs, so
	// crash points are not perfectly aligned across iterations — harmless,
	// since the property must hold at every budget regardless.
	dry := faultfs.Wrap(store.NewMemStore())
	crashWorkload(dry, payloads)
	w := dry.BytesWritten()
	if w == 0 {
		t.Fatal("dry run wrote nothing — workload broken")
	}

	for k := int64(0); k <= w; k++ {
		inner := store.NewMemStore()
		fault := faultfs.Wrap(inner)
		fault.SetCrashAfter(k)
		crashWorkload(fault, payloads)

		r, err := OpenBackend(inner)
		if err != nil {
			// Only one failure is acceptable: the process died before the
			// init snapshot became durable, so there is no repository.
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("k=%d: reopen failed with %v, want ErrNotExist or success", k, err)
			}
			continue
		}
		n := r.NumVersions()
		if n > len(payloads) {
			t.Fatalf("k=%d: recovered %d versions, workload only committed %d", k, n, len(payloads))
		}
		for v := 0; v < n; v++ {
			got, err := r.Checkout(v)
			if err != nil {
				t.Fatalf("k=%d: Checkout(%d): %v", k, v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("k=%d: Checkout(%d) diverges from committed payload", k, v)
			}
		}
		// v3 was committed on dev, so its presence implies the branch
		// record landed first (the log is strictly ordered).
		if n == len(payloads) && !slices.Contains(r.Branches(), "dev") {
			t.Fatalf("k=%d: v3 recovered but its dev branch is missing", k)
		}
		// The recovered repository is live: it accepts and serves a fresh
		// commit.
		post := []byte("k,v\npost,1\n")
		id, err := r.Commit(DefaultBranch, post, "post-recovery")
		if err != nil {
			t.Fatalf("k=%d: post-recovery Commit: %v", k, err)
		}
		if got, err := r.Checkout(id); err != nil || !bytes.Equal(got, post) {
			t.Fatalf("k=%d: post-recovery Checkout: %v", k, err)
		}
	}
}

// TestRepoRecoveryEveryCrashPointRemote runs the same every-byte crash
// sweep with the blobs living in the remote tier. The crash model shifts:
// faultfs wraps the remote *client*, so a spent budget means the process
// died before the request went out — writes that were charged never reach
// the server (atomic), log appends land a durable prefix (torn tail). The
// server itself — with injected latency, so recovery also runs against a
// slow remote — is the durable medium a fresh client reopens from.
func TestRepoRecoveryEveryCrashPointRemote(t *testing.T) {
	payloads := [][]byte{
		[]byte("k,v\na,1\nb,2\n"),
		[]byte("k,v\na,1\nb,2\nc,3\n"),
		[]byte("k,v\na,9\nb,2\nc,3\n"),
		[]byte("k,v\na,1\nd,4\n"),
	}

	srv := remote.NewServer()
	srv.SetLatency(50 * time.Microsecond)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	newClient := func() *remote.Store {
		return remote.New(ts.URL, remote.Options{
			HTTPClient:   ts.Client(),
			HedgeAfter:   -1, // keep the sweep deterministic
			RetryBackoff: time.Millisecond,
		})
	}

	dry := faultfs.Wrap(newClient())
	crashWorkload(dry, payloads)
	w := dry.BytesWritten()
	if w == 0 {
		t.Fatal("dry run wrote nothing — workload broken")
	}

	// Every crash point costs a full workload over HTTP, so the default
	// run strides through the budget (~256 crash points, still landing
	// mid-frame, mid-blob, and between operations); the recovery CI job
	// sets RECOVERY_EXHAUSTIVE to visit every byte.
	stride := w/256 + 1
	if os.Getenv("RECOVERY_EXHAUSTIVE") != "" {
		stride = 1
	}
	for k := int64(0); k <= w; k += stride {
		srv.Reset()
		fault := faultfs.Wrap(newClient())
		fault.SetCrashAfter(k)
		crashWorkload(fault, payloads)

		// The crashed client's process is gone; recovery speaks to the
		// same server through a fresh one.
		r, err := OpenBackend(newClient())
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("k=%d: reopen failed with %v, want ErrNotExist or success", k, err)
			}
			continue
		}
		n := r.NumVersions()
		if n > len(payloads) {
			t.Fatalf("k=%d: recovered %d versions, workload only committed %d", k, n, len(payloads))
		}
		for v := 0; v < n; v++ {
			got, err := r.Checkout(v)
			if err != nil {
				t.Fatalf("k=%d: Checkout(%d): %v", k, v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("k=%d: Checkout(%d) diverges from committed payload", k, v)
			}
		}
		if n == len(payloads) && !slices.Contains(r.Branches(), "dev") {
			t.Fatalf("k=%d: v3 recovered but its dev branch is missing", k)
		}
		post := []byte("k,v\npost,1\n")
		id, err := r.Commit(DefaultBranch, post, "post-recovery")
		if err != nil {
			t.Fatalf("k=%d: post-recovery Commit: %v", k, err)
		}
		if got, err := r.Checkout(id); err != nil || !bytes.Equal(got, post) {
			t.Fatalf("k=%d: post-recovery Checkout: %v", k, err)
		}
	}
}

// TestAccessStatsSurviveReopen is the regression test for the dropped
// final decay window: access telemetry recorded before the last commit
// must survive a reopen even without a clean Close, because the commit
// path folds the pending access deltas into the metadata log.
func TestAccessStatsSurviveReopen(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	payloads := seedRepo(t, r, 3)

	// A burst of checkouts far below the auto-flush threshold: without
	// the commit-time fold these would only ever reach the log via an
	// explicit Close.
	for i := 0; i < 5; i++ {
		if _, err := r.Checkout(1); err != nil {
			t.Fatalf("Checkout: %v", err)
		}
	}
	if _, err := r.Commit(DefaultBranch, []byte("k,v\nz,1\n"), "flush rider"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	want := r.Stats().Accesses
	if want == 0 {
		t.Fatal("no accesses recorded — test premise broken")
	}

	// Unclean shutdown: no Close, no Flush. Reopen sees everything
	// recorded up to the last commit.
	r2, err := OpenBackend(mem)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	if got := r2.Stats().Accesses; got != want {
		t.Errorf("recovered accesses = %d, want %d (final window dropped)", got, want)
	}
	hot := r2.HotVersions(1)
	if len(hot) == 0 || hot[0].Version != 1 {
		t.Errorf("hot version after reopen = %+v, want v1 on top", hot)
	}

	// Clean shutdown persists the post-commit tail too.
	for i := 0; i < 3; i++ {
		if _, err := r2.Checkout(2); err != nil {
			t.Fatalf("Checkout: %v", err)
		}
	}
	tail := r2.Stats().Accesses
	if err := r2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r3, err := OpenBackend(mem)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	if got := r3.Stats().Accesses; got != tail {
		t.Errorf("accesses after clean close = %d, want %d", got, tail)
	}

	// And the checkout payloads were untouched by all the telemetry
	// plumbing.
	for v, wantP := range payloads {
		if got, err := r3.Checkout(v); err != nil || !bytes.Equal(got, wantP) {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
	}
}

// TestOpenMigratesPreMetalogRepository writes a repository in the
// whole-document format that preceded the metadata log — meta.json,
// layout.json and access_stats.json, plus a materialized blob and a
// two-delta chain — and checks that OpenBackend migrates it: every version
// checks out byte-identical, access telemetry carries over, and a second
// open recovers from the log alone.
func TestOpenMigratesPreMetalogRepository(t *testing.T) {
	mem := store.NewMemStore()
	payloads := [][]byte{
		[]byte("id,name\n1,ada\n2,bob\n"),
		[]byte("id,name\n1,ada\n2,bob\n3,cy\n"),
		[]byte("id,name\n1,ada\n3,cy\n"),
	}
	put := func(b []byte) (store.ID, int) {
		id, err := mem.Put(b)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		return id, len(b)
	}
	b0, s0 := put(payloads[0])
	b1, s1 := put(delta.Encode(delta.DiffLines(payloads[0], payloads[1]), true))
	b2, s2 := put(delta.Encode(delta.DiffLines(payloads[1], payloads[2]), true))
	docs := map[string]string{
		"meta.json": fmt.Sprintf(`{
  "versions": [
    {"id": 0, "parents": [], "message": "root", "branch": "master", "size": %d, "time": "2015-06-01T10:00:00Z"},
    {"id": 1, "parents": [0], "message": "add cy", "branch": "master", "size": %d, "time": "2015-06-01T11:00:00Z"},
    {"id": 2, "parents": [1], "message": "drop bob", "branch": "dev", "size": %d, "time": "2015-06-01T12:00:00Z"}
  ],
  "branches": {"master": 1, "dev": 2}
}`, len(payloads[0]), len(payloads[1]), len(payloads[2])),
		"layout.json": fmt.Sprintf(`{
  "entries": [
    {"materialized": true, "parent": -1, "blob": %q, "compressed": false, "stored_bytes": %d},
    {"materialized": false, "parent": 0, "blob": %q, "compressed": false, "stored_bytes": %d},
    {"materialized": false, "parent": 1, "blob": %q, "compressed": false, "stored_bytes": %d}
  ]
}`, b0, s0, b1, s1, b2, s2),
		"access_stats.json": fmt.Sprintf(`{"half_life_seconds": 3600, "total": 7, "saved_at": %q, "counts": [1, 5, 1]}`,
			time.Now().UTC().Format(time.RFC3339)),
	}
	for name, doc := range docs {
		if err := mem.PutMeta(name, []byte(doc)); err != nil {
			t.Fatalf("PutMeta %s: %v", name, err)
		}
	}

	check := func(r *Repo, accesses uint64) {
		t.Helper()
		if got := r.Stats().Accesses; got != accesses {
			t.Errorf("accesses = %d, want %d", got, accesses)
		}
		if hot := r.HotVersions(1); len(hot) == 0 || hot[0].Version != 1 {
			t.Errorf("hot version = %+v, want v1 on top", hot)
		}
		if tip, err := r.Tip("dev"); err != nil || tip != 2 {
			t.Errorf("Tip(dev) = %d, %v; want 2", tip, err)
		}
		for v, want := range payloads {
			if got, err := r.Checkout(v); err != nil || !bytes.Equal(got, want) {
				t.Errorf("Checkout(%d) = %q, %v; want %q", v, got, err, want)
			}
		}
	}
	r, err := OpenBackend(mem)
	if err != nil {
		t.Fatalf("OpenBackend (migrate): %v", err)
	}
	if got := r.NumVersions(); got != len(payloads) {
		t.Fatalf("migrated %d versions, want %d", got, len(payloads))
	}
	if c := r.LogStats().Compactions; c != 1 {
		t.Errorf("migration wrote %d snapshots, want 1", c)
	}
	check(r, 7)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The documents are dead weight now: the second open must come from the
	// log even when they are unreadable.
	if err := mem.PutMeta("meta.json", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenBackend(mem)
	if err != nil {
		t.Fatalf("OpenBackend (recover): %v", err)
	}
	check(r2, 7+uint64(len(payloads)))
}
