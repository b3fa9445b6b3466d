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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"versiondb/internal/costs"
	"versiondb/internal/solve"
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

// TestOpenRefusesPreMetalogRepository writes a repository in the
// whole-document format that preceded the metadata log — a meta.json
// beside a blob, and no log — over both local backends, and checks that
// neither entry point takes it: OpenBackend fails with an error that names
// the format and is not "no repository", and InitBackend refuses to start a
// fresh log over blobs a later GC would collect as orphans. A backend with
// neither a log nor a meta.json still answers "no repository".
func TestOpenRefusesPreMetalogRepository(t *testing.T) {
	backends := map[string]func(t *testing.T) store.Backend{
		"mem": func(*testing.T) store.Backend { return store.NewMemStore() },
		"fs": func(t *testing.T) store.Backend {
			s, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatalf("store.Open: %v", err)
			}
			return s
		},
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			b := open(t)
			if _, err := OpenBackend(b); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("OpenBackend(empty): err = %v, want fs.ErrNotExist", err)
			}
			id, err := b.Put([]byte("id,name\n1,ada\n"))
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			meta := `{"versions":[{"id":0,"parents":[],"message":"root","branch":"master","size":14}],"branches":{"master":0}}`
			if err := b.PutMeta("meta.json", []byte(meta)); err != nil {
				t.Fatalf("PutMeta: %v", err)
			}
			_, err = OpenBackend(b)
			if err == nil {
				t.Fatal("OpenBackend opened a pre-metalog repository")
			}
			if errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), "pre-metalog") {
				t.Errorf("OpenBackend(pre-metalog): err = %v, want one naming the format and not fs.ErrNotExist", err)
			}
			if _, err := InitBackend(b); !errors.Is(err, errAlreadyInitialized) {
				t.Errorf("InitBackend(pre-metalog): err = %v, want errAlreadyInitialized", err)
			}
			if !b.Has(id) {
				t.Errorf("refused open or init lost blob %s", id)
			}
		})
	}
}

// TestStrayMetaJSONOpensFromLog: a metadata-log repository opens from its
// log alone, even beside an unreadable meta.json.
func TestStrayMetaJSONOpensFromLog(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	payloads := seedRepo(t, r, 3)
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := mem.PutMeta("meta.json", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenBackend(mem)
	if err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	defer r2.Close()
	for v, want := range payloads {
		if got, err := r2.Checkout(v); err != nil || !bytes.Equal(got, want) {
			t.Errorf("Checkout(%d) = %q, %v; want %q", v, got, err, want)
		}
	}
}

// TestOpenRefusesHashlessVersions: every version carries its payload hash,
// so replay refuses a commit record or a snapshot whose version has none
// rather than serving an empty ETag.
func TestOpenRefusesHashlessVersions(t *testing.T) {
	t.Run("commit record", func(t *testing.T) {
		mem := store.NewMemStore()
		r, err := InitBackend(mem)
		if err != nil {
			t.Fatalf("InitBackend: %v", err)
		}
		seedRepo(t, r, 2)
		v := r.meta.Versions[1]
		v.ID, v.Parents, v.Hash = 2, []int{1}, ""
		if err := r.appendJSON(recCommit, commitRecord{Version: v, Entry: r.layout.Entries[1]}); err != nil {
			t.Fatalf("append: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := OpenBackend(mem); err == nil || !strings.Contains(err.Error(), "no payload hash") {
			t.Errorf("OpenBackend: err = %v, want a refused hashless commit record", err)
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		mem := store.NewMemStore()
		r, err := InitBackend(mem)
		if err != nil {
			t.Fatalf("InitBackend: %v", err)
		}
		seedRepo(t, r, 2)
		r.meta.Versions[0].Hash = ""
		if err := r.compact(); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := OpenBackend(mem); err == nil || !strings.Contains(err.Error(), "no payload hash") {
			t.Errorf("OpenBackend: err = %v, want a refused hashless snapshot", err)
		}
	})
}

// memoCrashWorkload drives a history whose log carries the pair-size
// memo: five commits, an Optimize (a swap record with pairs), a commit, a
// compaction (a snapshot with the memo) and a second Optimize. Every step
// is best-effort. It returns the memo after each Optimize that swapped.
func memoCrashWorkload(b store.Backend, payloads [][]byte) []costs.PairSizes {
	r, err := InitBackend(b)
	if err != nil {
		return nil
	}
	var memos []costs.PairSizes
	optimize := func() {
		if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); err == nil {
			memos = append(memos, r.pairs)
		}
	}
	for i, p := range payloads[:5] {
		_, _ = r.Commit(DefaultBranch, p, fmt.Sprintf("c%d", i))
	}
	optimize()
	_, _ = r.Commit(DefaultBranch, payloads[5], "c5")
	r.mu.Lock()
	_ = r.compact()
	r.mu.Unlock()
	optimize()
	return memos
}

// TestRecoveryMemoEveryCrashPoint cuts power at every byte (or, by
// default, at a stride through the bytes) of memoCrashWorkload. Whatever
// prefix reopens, the memo is exactly the snapshot's plus the pairs of the
// whole swap records replayed after it — a torn swap record loses its
// swap and its pairs together — so it is one of the memos the uncut run
// held, and every size in it is what the differ computes.
func TestRecoveryMemoEveryCrashPoint(t *testing.T) {
	payloads := [][]byte{
		[]byte("k,v\na,1\nb,2\n"),
		[]byte("k,v\na,1\nb,2\nc,3\n"),
		[]byte("k,v\na,9\nb,2\nc,3\n"),
		[]byte("k,v\na,9\nb,2\nc,3"),
		[]byte("k,v\na,9\nc,3\nd,4\n"),
		[]byte("k,v\na,1\nd,4\n"),
	}
	dry := faultfs.Wrap(store.NewMemStore())
	uncut := memoCrashWorkload(dry, payloads)
	if len(uncut) != 2 || len(uncut[1]) <= len(uncut[0]) {
		t.Fatalf("uncut run: memos %v, want two, the second larger", uncut)
	}
	w := dry.BytesWritten()
	stride := w/512 + 1
	if os.Getenv("RECOVERY_EXHAUSTIVE") != "" {
		stride = 1
	}
	seen := map[int]bool{}
	// Timestamps vary a run's bytes by up to a dozen (JSON drops a time's
	// trailing zero digits), more than a stride, so a budget just past the
	// dry run's can still tear the last record. The sweep ends with one run
	// that is never cut instead: the uncut history.
	for k := int64(0); k <= w+stride; k += stride {
		inner := store.NewMemStore()
		fault := faultfs.Wrap(inner)
		if k <= w {
			fault.SetCrashAfter(k)
		}
		memoCrashWorkload(fault, payloads)

		r, err := OpenBackend(inner)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("k=%d: reopen failed with %v, want ErrNotExist or success", k, err)
			}
			continue
		}
		view, err := r.log.ReadFrom(0)
		if err != nil {
			t.Fatalf("k=%d: ReadFrom: %v", k, err)
		}
		var replayed costs.PairSizes
		fold := func(rows pairRows) {
			t.Helper()
			added, err := rows.memo(r.NumVersions())
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			replayed = replayed.With(added)
		}
		if view.Snapshot != nil {
			var st snapshotState
			if err := json.Unmarshal(view.Snapshot, &st); err != nil {
				t.Fatalf("k=%d: snapshot: %v", k, err)
			}
			fold(st.Pairs)
		}
		for _, rec := range view.Records {
			if rec.Type != recLayoutSwap {
				continue
			}
			var sr layoutSwapRecord
			if err := json.Unmarshal(rec.Data, &sr); err != nil {
				t.Fatalf("k=%d: swap record: %v", k, err)
			}
			fold(sr.Pairs)
		}
		if !slices.Equal(r.pairs, replayed) {
			t.Fatalf("k=%d: memo of %d pairs, but the replayed log holds %d", k, len(r.pairs), len(replayed))
		}
		which := -1
		for i, m := range append([]costs.PairSizes{{}}, uncut...) {
			if slices.Equal(r.pairs, m) {
				which = i
			}
		}
		if which < 0 {
			t.Fatalf("k=%d: memo of %d pairs is none of the uncut run's", k, len(r.pairs))
		}
		seen[which] = true
		_, payloads, memo := snapshotOf(t, r)
		checkMemoSizes(t, payloads, memo)
		if err := r.Close(); err != nil {
			t.Fatalf("k=%d: Close: %v", k, err)
		}
	}
	if len(seen) != 3 {
		t.Errorf("the sweep reopened onto memos %v, want all of none, the first and the second", seen)
	}
}

// TestOpenLogWithoutPairs opens a log as written before the pair-size
// memo existed — swap records and a snapshot with no pairs field — onto
// an empty memo; the repository serves, and its first Optimize sizes every
// revealed pair into the from-scratch matrix. A record written now still
// decodes into the older record shape, which ignores the new field.
func TestOpenLogWithoutPairs(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(t, 9)
	// oldSwap is the swap record as logs without the memo carry it.
	oldSwap := func() {
		t.Helper()
		r.mu.Lock()
		defer r.mu.Unlock()
		if err := r.appendJSON(recLayoutSwap, struct {
			Entries []store.Entry `json:"entries"`
		}{r.layout.Entries}); err != nil {
			t.Fatal(err)
		}
	}
	h.step(r, 12, true)
	oldSwap()
	r.mu.Lock()
	err = r.compact() // the memo is empty, so the snapshot has no pairs
	r.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	h.step(r, 6, true)
	oldSwap()
	_, payloads, _ := snapshotOf(t, r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if r, err = OpenBackend(mem); err != nil {
		t.Fatalf("OpenBackend: %v", err)
	}
	if len(r.pairs) != 0 {
		t.Fatalf("memo of %d pairs from a log without any", len(r.pairs))
	}
	for v, want := range payloads {
		if got, err := r.Checkout(v); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
	}
	if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if all, _ := revealedCount(r, 5, 0); r.pairsSized.Load() != int64(all) {
		t.Fatalf("first Optimize sized %d pairs, want all %d", r.pairsSized.Load(), all)
	}
	checkMemo(t, r, 5)

	view, err := r.log.ReadFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	last := view.Records[len(view.Records)-1]
	var old struct {
		Entries []store.Entry `json:"entries"`
	}
	if last.Type != recLayoutSwap || json.Unmarshal(last.Data, &old) != nil || len(old.Entries) != len(payloads) {
		t.Fatalf("the new swap record (type %d) does not decode into the older shape", last.Type)
	}
}

// TestUnpersistedSwapInstallsNoPairs cuts power inside an Optimize's swap
// record — the last write it makes — so the swap fails to persist: the
// repository keeps serving its old layout and its old memo, not one that
// holds pairs no record carries.
func TestUnpersistedSwapInstallsNoPairs(t *testing.T) {
	build := func() (*Repo, *faultfs.Store) {
		t.Helper()
		f := faultfs.Wrap(store.NewMemStore())
		r, err := InitBackend(f)
		if err != nil {
			t.Fatal(err)
		}
		newHistory(t, 31).step(r, 10, false)
		if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Commit(DefaultBranch, []byte("k,v\na,1\n"), "one more"); err != nil {
			t.Fatal(err)
		}
		return r, f
	}
	optimize := func(r *Repo) error {
		_, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}, ConflictRetries: -1})
		return err
	}
	// A dry run measures what the second Optimize writes; its bytes do not
	// depend on commit timestamps.
	dry, f := build()
	before := f.BytesWritten()
	if err := optimize(dry); err != nil {
		t.Fatal(err)
	}
	spent := f.BytesWritten() - before

	r, f := build()
	memo, entries := r.pairs, append([]store.Entry(nil), r.layout.Entries...)
	f.SetCrashAfter(spent - 1)
	if err := optimize(r); !errors.Is(err, faultfs.ErrCrashed) {
		t.Fatalf("Optimize with its swap record cut: err = %v, want faultfs.ErrCrashed", err)
	}
	if !slices.Equal(r.pairs, memo) {
		t.Fatalf("failed swap installed a memo of %d pairs, want the %d before", len(r.pairs), len(memo))
	}
	if !slices.Equal(r.layout.Entries, entries) {
		t.Fatalf("failed swap installed its layout")
	}
}
