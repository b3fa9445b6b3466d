package repo

// Tests that Optimize does each step once: the solve request carries the
// arborescence its default was derived from, and the rewrite writes only
// the entries whose parent, materialized flag or codec changed, ending on
// the layout a from-scratch build writes, blob ids included.

import (
	"context"
	"sync/atomic"
	"testing"

	"versiondb/internal/solve"
	"versiondb/internal/store"
)

// countingBackend counts blob Puts on top of a MemStore; metadata-log
// appends do not go through Put.
type countingBackend struct {
	*store.MemStore
	puts atomic.Int64
}

func (b *countingBackend) Put(data []byte) (store.ID, error) {
	b.puts.Add(1)
	return b.MemStore.Put(data)
}

// entriesOf copies r's served entry table.
func entriesOf(r *Repo) []store.Entry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]store.Entry(nil), r.layout.Entries...)
}

// TestOptimizeReusesUnchangedBlobs checks the rewrite writes exactly the
// entries that moved: none on a second Optimize with no commits, after k
// commits only those whose parent or materialized flag changed, and all
// of them when the codec flips. Every layout must equal the one
// BuildLayout writes from scratch for the same tree.
func TestOptimizeReusesUnchangedBlobs(t *testing.T) {
	b := &countingBackend{MemStore: store.NewMemStore()}
	r, err := InitBackend(b)
	if err != nil {
		t.Fatal(err)
	}
	h := newHistory(t, 11)
	h.step(r, 30, true)
	// optimize runs an lmg Optimize and returns the entries before and
	// after it and how many blobs it put, after checking the result is
	// the from-scratch layout of the chosen tree.
	optimize := func(compress bool) (before, after []store.Entry, puts int64) {
		t.Helper()
		before = entriesOf(r)
		p0 := b.puts.Load()
		res, err := r.Optimize(context.Background(), OptimizeOptions{
			Request: solve.Request{Solver: "lmg"}, Compress: compress, NoAutoWeights: true,
		})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		puts = b.puts.Load() - p0
		after = entriesOf(r)
		_, payloads, _ := snapshotOf(t, r)
		want, err := store.BuildLayout(store.NewMemStore(), payloads, res.Tree, compress, nil)
		if err != nil {
			t.Fatal(err)
		}
		sameLayout(t, after, nil, want.Entries, nil)
		return before, after, puts
	}
	// moved counts the entries whose parent or materialized flag differs.
	moved := func(before, after []store.Entry) int64 {
		var n int64
		for v := range after {
			if before[v].Parent != after[v].Parent || before[v].Materialized != after[v].Materialized {
				n++
			} else if before[v] != after[v] {
				t.Fatalf("entry %d kept its parent but changed: %+v → %+v", v, before[v], after[v])
			}
		}
		return n
	}

	if _, _, puts := optimize(false); puts == 0 {
		t.Fatal("first Optimize put no blobs")
	}
	if before, after, puts := optimize(false); puts != 0 || moved(before, after) != 0 {
		t.Fatalf("second Optimize with no commits put %d blobs and moved %d entries, want 0 and 0", puts, moved(before, after))
	}
	for _, k := range []int{1, 4} {
		h.step(r, k, false)
		before, after, puts := optimize(false)
		want := moved(before, after)
		if puts != want {
			t.Fatalf("after %d commits: Optimize put %d blobs, want the %d entries that moved", k, puts, want)
		}
		if want == int64(len(after)) {
			t.Fatalf("after %d commits: every one of %d entries moved; nothing was reused", k, want)
		}
	}
	// A codec flip rewrites every entry, both ways.
	for _, compress := range []bool{true, false} {
		_, after, puts := optimize(compress)
		if puts != int64(len(after)) {
			t.Fatalf("Compress=%v: Optimize put %d blobs, want all %d", compress, puts, len(after))
		}
	}
}

// TestSolveRequestAttachesHints checks that the tree a default knob was
// derived from rides along as the request's hint — the MST for budget
// solvers, the SPT for p5 — and that hints the caller set are kept.
func TestSolveRequestAttachesHints(t *testing.T) {
	versions, payloads := generatedVersions(t, 30, 6)
	m, _, err := costMatrix(context.Background(), versions, payloads, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := solve.MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	spt, err := solve.MinRecreation(inst)
	if err != nil {
		t.Fatal(err)
	}
	resolve := func(req solve.Request) solve.Request {
		t.Helper()
		got, _, err := solveRequest(inst, versions, OptimizeOptions{Request: req}, 1)
		if err != nil {
			t.Fatalf("solveRequest(%s): %v", req.Solver, err)
		}
		return got
	}
	for _, name := range []string{"lmg", "p4"} {
		req := resolve(solve.Request{Solver: name})
		if req.Hints == nil || req.Hints.MST == nil {
			t.Fatalf("%s: no MST hint", name)
		}
		if req.Hints.MST.Storage != mst.Storage || req.Budget != 1.25*req.Hints.MST.Storage {
			t.Fatalf("%s: budget %g from MST hint of storage %g, want 1.25 × %g", name, req.Budget, req.Hints.MST.Storage, mst.Storage)
		}
	}
	req := resolve(solve.Request{Solver: "p5"})
	if req.Hints == nil || req.Hints.SPT == nil || req.Hints.SPT.SumR != spt.SumR || req.Theta != 1.25*spt.SumR {
		t.Fatalf("p5: hints %+v, θ %g; want the SPT hint and θ = 1.25 × %g", req.Hints, req.Theta, spt.SumR)
	}
	// A budget the caller set needs no MST, so none is attached.
	if req := resolve(solve.Request{Solver: "lmg", Budget: 2 * mst.Storage}); req.Hints != nil {
		t.Fatalf("lmg with a budget: hints %+v attached, want none", req.Hints)
	}
	mine := &solve.Hints{MST: mst, SPT: spt}
	for _, name := range []string{"lmg", "p4", "p5"} {
		if req := resolve(solve.Request{Solver: name, Hints: mine}); req.Hints != mine {
			t.Fatalf("%s: caller's hints replaced", name)
		}
	}
}
