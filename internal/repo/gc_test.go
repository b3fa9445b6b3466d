package repo

// Mark-and-sweep GC tests. The hazard under test is the content-addressed
// race between GC and Optimize's shadow build: a blob the build has
// written (or is about to no-op on) is unreferenced by the served layout
// until the swap, so a concurrent sweep would judge it an orphan. The
// shadowRecorder's registration-before-Put must keep such blobs alive
// while the build is provably mid-write — here made a deterministic
// program point by a backend whose second armed Put parks until released.

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"versiondb/internal/solve"
	"versiondb/internal/store"
)

// parkingBackend passes everything through to the embedded MemStore, but
// once armed it records the address of its first Put and parks the second
// Put — signaling entered, waiting for proceed — leaving exactly one
// freshly written, not-yet-referenced blob in the store.
type parkingBackend struct {
	*store.MemStore
	mu      sync.Mutex
	armed   bool
	puts    int
	firstID store.ID
	entered chan struct{}
	proceed chan struct{}
}

func newParkingBackend() *parkingBackend {
	return &parkingBackend{
		MemStore: store.NewMemStore(),
		entered:  make(chan struct{}),
		proceed:  make(chan struct{}),
	}
}

func (b *parkingBackend) arm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.armed = true
	b.puts = 0
}

func (b *parkingBackend) Put(data []byte) (store.ID, error) {
	b.mu.Lock()
	park := false
	if b.armed {
		b.puts++
		switch b.puts {
		case 1:
			b.firstID = store.HashBytes(data)
		case 2:
			park = true
		}
	}
	b.mu.Unlock()
	if park {
		close(b.entered)
		<-b.proceed
	}
	return b.MemStore.Put(data)
}

// TestGCCollectsFailedSwapOrphans drives an Optimize into a losing
// copy-on-write swap (a commit lands while the solver is gated), leaving
// its fully built shadow layout as orphan blobs, and checks one GC pass
// collects them all — without disturbing a single served payload.
func TestGCCollectsFailedSwapOrphans(t *testing.T) {
	r, err := InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	payloads := seedRepo(t, r, 5)

	// Nothing to collect on a quiet repository.
	res, err := r.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if res.Collected != 0 || res.Live != res.Scanned {
		t.Fatalf("quiet GC = %+v, want all scanned blobs live", res)
	}

	started, release := gate.Arm()
	defer gate.Disarm()
	optErr := make(chan error, 1)
	go func() {
		// Compress guarantees the shadow build's blobs differ bytewise
		// from every seed blob, so a failed swap strands real orphans.
		_, err := r.Optimize(context.Background(), OptimizeOptions{
			Request:         solve.Request{Solver: "gate"},
			Compress:        true,
			ConflictRetries: -1,
		})
		optErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never started")
	}
	extra, err := r.Commit(DefaultBranch, []byte("a,b\n9,9\n"), "invalidate snapshot")
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	close(release)
	if err := <-optErr; !errors.Is(err, ErrOptimizeConflict) {
		t.Fatalf("Optimize = %v, want ErrOptimizeConflict", err)
	}

	res, err = r.GC()
	if err != nil {
		t.Fatalf("GC after failed swap: %v", err)
	}
	if res.Collected == 0 {
		t.Fatal("failed swap stranded no orphans — GC collected nothing")
	}
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d) after GC diverges: %v", v, err)
		}
	}
	if got, err := r.Checkout(extra); err != nil || !bytes.Equal(got, []byte("a,b\n9,9\n")) {
		t.Fatalf("Checkout(extra) after GC diverges: %v", err)
	}
	// The sweep converged: a second pass finds nothing.
	res, err = r.GC()
	if err != nil || res.Collected != 0 {
		t.Fatalf("second GC = %+v, %v; want nothing left to collect", res, err)
	}
	if st := r.Stats(); st.GCRuns != 3 || st.GCCollected == 0 {
		t.Errorf("Stats = %d GC runs, %d collected; want 3 runs and a nonzero total", st.GCRuns, st.GCCollected)
	}
}

// TestGCSparesShadowBlobsMidBuild sweeps while a concurrent Optimize is
// provably mid-shadow-write — one fresh blob written, the next parked
// inside Put — and checks the written-but-unreferenced blob survives, the
// build completes onto an intact layout, and only the retired layout's
// blobs are collected afterwards.
func TestGCSparesShadowBlobsMidBuild(t *testing.T) {
	b := newParkingBackend()
	r, err := InitBackend(b)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	payloads := seedRepo(t, r, 5)

	b.arm()
	optErr := make(chan error, 1)
	go func() {
		_, err := r.Optimize(context.Background(), OptimizeOptions{
			Request:  solve.Request{Solver: "mst"},
			Compress: true,
		})
		optErr <- err
	}()
	select {
	case <-b.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("shadow build never reached its second Put")
	}

	// Mid-shadow-write sweep: the first shadow blob is in the store,
	// referenced by nothing the served layout knows about.
	if !b.MemStore.Has(b.firstID) {
		t.Fatal("first shadow blob not in backend — test premise broken")
	}
	res, err := r.GC()
	if err != nil {
		t.Fatalf("GC mid-build: %v", err)
	}
	if !b.MemStore.Has(b.firstID) {
		t.Fatal("GC collected a shadow-protected blob out from under the build")
	}
	if res.Collected != 0 {
		t.Errorf("mid-build GC collected %d blobs, want 0 (everything live or protected)", res.Collected)
	}

	close(b.proceed)
	if err := <-optErr; err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d) on swapped layout diverges: %v", v, err)
		}
	}
	// The swap retired the seed layout; its blobs are now the orphans.
	res, err = r.GC()
	if err != nil {
		t.Fatalf("GC after swap: %v", err)
	}
	if res.Collected == 0 {
		t.Error("retired layout left no orphans — expected the old uncompressed blobs")
	}
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d) after post-swap GC diverges: %v", v, err)
		}
	}
}

// TestGCSparesReusedBlobsAtSwap sweeps from the "swap" progress callback
// (rewrite done, swap not yet taken, no lock held) during an Optimize that
// keeps most entries as they were. Until the swap a reused blob is
// referenced only by the served layout and a rewritten one only by the
// shadow set, so the sweep must collect neither: every blob of the new
// layout survives, and every version checks out its committed bytes after
// the swap and after a second sweep.
func TestGCSparesReusedBlobsAtSwap(t *testing.T) {
	mem := store.NewMemStore()
	r, err := InitBackend(mem)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(t, 5)
	h.step(r, 30, true)
	lmg := OptimizeOptions{Request: solve.Request{Solver: "lmg"}, NoAutoWeights: true}
	if _, err := r.Optimize(context.Background(), lmg); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	h.step(r, 8, false)
	if _, err := r.GC(); err != nil { // sweep the retired layout first
		t.Fatalf("GC: %v", err)
	}
	_, payloads, _ := snapshotOf(t, r)
	before := entriesOf(r)

	var mid GCResult
	var midErr error
	swept := false
	opts := lmg
	opts.Progress = func(phase string) {
		if phase == "swap" {
			mid, midErr = r.GC()
			swept = true
		}
	}
	if _, err := r.Optimize(context.Background(), opts); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if !swept || midErr != nil {
		t.Fatalf("GC at swap: ran %v, err %v", swept, midErr)
	}
	after := entriesOf(r)
	reused := 0
	for v := range after {
		if after[v] == before[v] {
			reused++
		}
	}
	if reused == 0 || reused == len(after) {
		t.Fatalf("%d of %d entries reused — test premise needs some reused and some rewritten", reused, len(after))
	}
	if mid.Collected != 0 {
		t.Errorf("GC at swap collected %d blobs, want 0 (all served or shadow-protected)", mid.Collected)
	}
	for v, e := range after {
		if !mem.Has(e.Blob) {
			t.Fatalf("entry %d's blob %s is gone after the swap", v, e.Blob)
		}
	}
	check := func(when string) {
		t.Helper()
		for v, want := range payloads {
			got, err := r.Checkout(v)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Checkout(%d) %s diverges: %v", v, when, err)
			}
		}
	}
	check("after the swap")
	if _, err := r.GC(); err != nil {
		t.Fatalf("GC after swap: %v", err)
	}
	check("after a second GC")
}
