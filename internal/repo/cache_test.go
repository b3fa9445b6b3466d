package repo

// Version-cache lifetime tests: one cache serves a repository for its
// whole life. A commit admits what it wrote, Optimize's layout swaps and a
// replica's swap records keep the cache, and only a reset to a snapshot
// empties it.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"versiondb/internal/dataset"
	"versiondb/internal/solve"
	"versiondb/internal/store"
)

// evolvingPayloads returns n CSV payloads, each a small edit of the one
// before, so that committing them in order stores delta chains.
func evolvingPayloads(t *testing.T, seed int64, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tb := dataset.Random(rng, 60, 5)
	out := make([][]byte, n)
	for i := range out {
		if i > 0 {
			next, err := dataset.RandomScript(rng, tb.NumRows(), tb.NumCols(), 2).Apply(tb)
			if err != nil {
				t.Fatal(err)
			}
			tb = next
		}
		b, err := tb.EncodeCSV()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// servingWork is the serving-path work a checkout can add: backend blob
// reads and delta applications.
func servingWork(r *Repo) [2]int64 { return [2]int64{r.BlobReads(), r.DeltaApplications()} }

// checkoutBoth checks v out buffered and streamed and fails t unless both
// return want.
func checkoutBoth(t *testing.T, r *Repo, v int, want []byte) {
	t.Helper()
	got, err := r.Checkout(v)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Checkout(%d): %d bytes, %v; want the committed %d", v, len(got), err, len(want))
	}
	if got, _ := drainRepoStream(t, r, v); !bytes.Equal(got, want) {
		t.Fatalf("CheckoutStream(%d): %d bytes; want the committed %d", v, len(got), len(want))
	}
}

// TestVersionCacheCommitAdmits: the checkouts of a version just committed
// or merged, buffered and streamed, are exact hits that read no blob and
// apply no delta.
func TestVersionCacheCommitAdmits(t *testing.T) {
	r := newRepo(t)
	r.EnableCacheBytes(1 << 20)
	payloads := evolvingPayloads(t, 3, 8)
	admitted := func(v int, want []byte) {
		t.Helper()
		before, hits := servingWork(r), r.CacheMetrics().Hits
		checkoutBoth(t, r, v, want)
		if after := servingWork(r); after != before {
			t.Errorf("checkouts of just-committed %d: blob reads, deltas %v → %v; want no change", v, before, after)
		}
		if got := r.CacheMetrics().Hits - hits; got != 2 {
			t.Errorf("checkouts of just-committed %d: %d hits, want 2", v, got)
		}
	}
	for _, p := range payloads {
		v, err := r.Commit(DefaultBranch, p, "c")
		if err != nil {
			t.Fatal(err)
		}
		admitted(v, p)
	}
	if err := r.Branch("side", 2); err != nil {
		t.Fatal(err)
	}
	side, err := r.Commit("side", payloads[3], "side")
	if err != nil {
		t.Fatal(err)
	}
	admitted(side, payloads[3])
	merged := append(append([]byte(nil), payloads[7]...), "9,9,9,9,9\n"...)
	m, err := r.Merge(DefaultBranch, side, merged, "merge")
	if err != nil {
		t.Fatal(err)
	}
	admitted(m, merged)
	if st := r.Stats(); st.Materialized == st.Versions {
		t.Fatalf("every version is materialized: no chain a cold checkout would replay")
	}
}

// TestVersionCacheCommitCopiesPayload: the cache holds its own copy of a
// committed payload, so a caller that reuses its buffer after Commit
// returns does not change what checkouts return.
func TestVersionCacheCommitCopiesPayload(t *testing.T) {
	for _, mode := range []string{"versions", "bytes"} {
		t.Run(mode, func(t *testing.T) {
			r := newRepo(t)
			if mode == "versions" {
				r.EnableCache(4)
			} else {
				r.EnableCacheBytes(1 << 20)
			}
			want := evolvingPayloads(t, 4, 1)[0]
			buf := append([]byte(nil), want...)
			v, err := r.Commit(DefaultBranch, buf, "c")
			if err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				buf[i] = 'x'
			}
			checkoutBoth(t, r, v, want)
			if r.CacheMetrics().Misses != 0 {
				t.Errorf("the checkouts missed: %+v", r.CacheMetrics())
			}
		})
	}
}

// TestVersionCacheOversizedCommitNotCopied: a committed payload larger
// than the byte budget leaves the cache as it was, and the write-through
// makes no copy of it.
func TestVersionCacheOversizedCommitNotCopied(t *testing.T) {
	r := newRepo(t)
	const budget = 256
	r.EnableCacheBytes(budget)
	payloads := evolvingPayloads(t, 5, 3)
	for _, p := range payloads {
		if len(p) <= budget {
			t.Fatalf("test payload of %d bytes fits the %d-byte budget", len(p), budget)
		}
		before := r.CacheMetrics()
		v, err := r.Commit(DefaultBranch, p, "big")
		if err != nil {
			t.Fatal(err)
		}
		if after := r.CacheMetrics(); after.BytesResident != before.BytesResident || after.Entries != before.Entries {
			t.Errorf("commit %d of %d bytes changed the cache: %+v → %+v", v, len(p), before, after)
		}
	}
	// The write-through addVersionLocked performs, measured on its own.
	last := len(payloads) - 1
	if a := testing.AllocsPerRun(100, func() { r.layout.Cache().PutCopy(last, payloads[last]) }); a != 0 {
		t.Errorf("write-through of an oversized payload allocated %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { r.layout.Cache().PutCopy(last, payloads[last][:budget]) }); a == 0 {
		t.Error("write-through of an admissible payload allocated nothing: the measure cannot see a copy")
	}
}

// TestVersionCacheSurvivesOptimize: a version resident before Optimize is
// an exact hit after the swap, with no new blob read, under the
// storage-minimal and the budgeted solver alike.
func TestVersionCacheSurvivesOptimize(t *testing.T) {
	for _, solver := range []string{"mst", "lmg"} {
		t.Run(solver, func(t *testing.T) {
			r := newRepo(t)
			payloads := evolvingPayloads(t, 6, 12)
			for _, p := range payloads {
				if _, err := r.Commit(DefaultBranch, p, "c"); err != nil {
					t.Fatal(err)
				}
			}
			// Installed after the commits, so that only what the checkouts
			// below read is resident.
			r.EnableCacheBytes(1 << 20)
			hot := []int{3, 7, 11}
			for _, v := range hot {
				checkoutBoth(t, r, v, payloads[v])
			}
			before := r.CacheMetrics()
			old := r.layout
			if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: solver}}); err != nil {
				t.Fatalf("Optimize: %v", err)
			}
			if r.layout == old {
				t.Fatal("Optimize swapped no layout in")
			}
			work := servingWork(r)
			for _, v := range hot {
				checkoutBoth(t, r, v, payloads[v])
			}
			if got := servingWork(r); got != work {
				t.Errorf("post-swap checkouts of resident versions: blob reads, deltas %v → %v; want no change", work, got)
			}
			after := r.CacheMetrics()
			if after.Hits-before.Hits != uint64(2*len(hot)) || after.Misses != before.Misses {
				t.Errorf("post-swap checkouts: %+v → %+v; want %d more hits and no more misses", before, after, 2*len(hot))
			}
			if after.Entries != before.Entries || after.BytesResident != before.BytesResident {
				t.Errorf("the swap changed the cache's contents: %+v → %+v", before, after)
			}
		})
	}
}

// TestVersionCacheReplicaSwapAndSnapshot: a replica that applies the
// primary's swap record keeps its hot set, and ApplySnapshot empties the
// cache. The snapshot comes from another history whose version ids name
// other bytes; a stream opened before the reset and drained after it
// admits nothing either, so no checkout serves the old history's bytes.
func TestVersionCacheReplicaSwapAndSnapshot(t *testing.T) {
	mem := store.NewMemStore()
	primary, err := InitBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	payloads := evolvingPayloads(t, 8, 10)
	for _, p := range payloads {
		if _, err := primary.Commit(DefaultBranch, p, "c"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := OpenReplica(mem)
	if err != nil {
		t.Fatal(err)
	}
	rep.EnableCacheBytes(1 << 20)
	follow(t, rep, primary)
	hot := []int{4, 9}
	for _, v := range hot {
		checkoutBoth(t, rep, v, payloads[v])
	}
	before := rep.CacheMetrics()

	if _, err := primary.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "mst"}}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	applied, _, _ := rep.ReplicaStatus()
	view, err := primary.LogTail(context.Background(), applied, false)
	if err != nil {
		t.Fatal(err)
	}
	if view.Snapshot != nil {
		t.Fatal("the swap reached the replica as a snapshot, not a record")
	}
	old := rep.layout
	if _, err := rep.ApplyRecords(view.Records); err != nil {
		t.Fatal(err)
	}
	if rep.layout == old {
		t.Fatal("the replica installed no layout from the swap record")
	}
	work := servingWork(rep)
	for _, v := range hot {
		checkoutBoth(t, rep, v, payloads[v])
	}
	if got := servingWork(rep); got != work {
		t.Errorf("replica checkouts after the swap record: blob reads, deltas %v → %v; want no change", work, got)
	}
	if after := rep.CacheMetrics(); after.Hits-before.Hits != uint64(2*len(hot)) || after.Entries != before.Entries {
		t.Errorf("replica cache across the swap record: %+v → %+v", before, after)
	}

	// Another history, its blobs copied onto the replica's backend.
	otherMem := store.NewMemStore()
	other, err := InitBackend(otherMem)
	if err != nil {
		t.Fatal(err)
	}
	otherPayloads := evolvingPayloads(t, 9, 10)
	for _, p := range otherPayloads {
		if _, err := other.Commit(DefaultBranch, p, "other"); err != nil {
			t.Fatal(err)
		}
	}
	other.mu.Lock()
	err = other.compact()
	other.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	otherView, err := other.LogTail(context.Background(), 0, false)
	if err != nil || otherView.Snapshot == nil {
		t.Fatalf("other history's snapshot: %v", err)
	}
	ids, err := otherMem.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		b, err := otherMem.Get(id)
		if err == nil {
			_, err = mem.Put(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	const cold = 2
	rc, _, err := rep.CheckoutStream(cold)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplySnapshot(otherView.Snapshot, otherView.BaseSeq); err != nil {
		t.Fatalf("ApplySnapshot: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payloads[cold]) {
		t.Fatalf("stream opened before the reset: %d bytes, %v", len(got), err)
	}
	if cs := rep.CacheMetrics(); cs.Entries != 0 || cs.BytesResident != 0 || cs.BudgetBytes != 1<<20 {
		t.Errorf("after ApplySnapshot: %+v; want an empty cache with the same budget", cs)
	}
	for _, v := range append(hot, cold) {
		checkoutBoth(t, rep, v, otherPayloads[v])
	}
}

// TestVersionCacheConcurrent races commits on two branches, buffered and
// streamed checkouts and repeated Optimize calls over one small byte
// budget: every checkout must return the committed bytes, and the cache
// must stay within its budget throughout. Run with -race.
func TestVersionCacheConcurrent(t *testing.T) {
	r, err := InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	const perBranch = 12
	branches := map[string][][]byte{
		DefaultBranch: evolvingPayloads(t, 10, perBranch+1),
		"side":        evolvingPayloads(t, 11, perBranch),
	}
	budget := int64(3 * len(branches[DefaultBranch][0]))
	r.EnableCacheBytes(budget)

	var cmu sync.Mutex
	var committed [][]byte // committed[v] is version v's payload
	commit := func(branch string, p []byte) error {
		cmu.Lock()
		defer cmu.Unlock()
		v, err := r.Commit(branch, p, "c")
		if err != nil {
			return err
		}
		if v != len(committed) {
			return fmt.Errorf("commit got id %d after %d versions", v, len(committed))
		}
		committed = append(committed, p)
		return nil
	}
	pick := func(rng *rand.Rand) (int, []byte) {
		cmu.Lock()
		defer cmu.Unlock()
		v := rng.Intn(len(committed))
		return v, committed[v]
	}
	if err := commit(DefaultBranch, branches[DefaultBranch][0]); err != nil {
		t.Fatal(err)
	}
	branches[DefaultBranch] = branches[DefaultBranch][1:]
	if err := r.Branch("side", 0); err != nil {
		t.Fatal(err)
	}

	errc := make(chan error, 16)
	fail := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	withinBudget := func() error {
		if cs := r.CacheMetrics(); cs.BytesResident < 0 || cs.BytesResident > cs.BudgetBytes || cs.BudgetBytes != budget {
			return fmt.Errorf("cache out of bounds: %+v", cs)
		}
		return nil
	}
	stop := make(chan struct{})
	var writers, others sync.WaitGroup
	for branch, payloads := range branches {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for _, p := range payloads {
				if err := commit(branch, p); err != nil {
					fail(fmt.Errorf("commit on %s: %w", branch, err))
					return
				}
			}
		}()
	}
	for g := 0; g < 4; g++ {
		others.Add(1)
		go func(streamed bool, seed int64) {
			defer others.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, want := pick(rng)
				var got []byte
				var err error
				if streamed {
					var rc io.ReadCloser
					if rc, _, err = r.CheckoutStream(v); err == nil {
						got, err = io.ReadAll(rc)
						rc.Close()
					}
				} else {
					got, err = r.Checkout(v)
				}
				if err != nil || !bytes.Equal(got, want) {
					fail(fmt.Errorf("checkout %d (streamed %v): %d bytes, %v; want the committed %d", v, streamed, len(got), err, len(want)))
					return
				}
				if err := withinBudget(); err != nil {
					fail(err)
					return
				}
			}
		}(g%2 == 1, int64(20+g))
	}
	others.Add(1)
	go func() {
		defer others.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			solver := []string{"mst", "lmg"}[i%2]
			_, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: solver}})
			if err != nil && !errors.Is(err, ErrOptimizeConflict) {
				fail(fmt.Errorf("Optimize %s: %w", solver, err))
				return
			}
			if err := withinBudget(); err != nil {
				fail(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	others.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if _, err := r.Optimize(context.Background(), OptimizeOptions{Request: solve.Request{Solver: "lmg"}}); err != nil {
		t.Fatalf("final Optimize: %v", err)
	}
	for v, want := range committed {
		checkoutBoth(t, r, v, want)
	}
	if err := withinBudget(); err != nil {
		t.Error(err)
	}
}
