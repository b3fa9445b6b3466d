package repo

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"versiondb/internal/solve"
	"versiondb/internal/store"
)

// captureSolver is a registry solver that records the Request it was handed
// and delegates to MST — the probe proving what Optimize actually feeds the
// solver layer.
type captureSolver struct {
	name     string
	weighted bool
	mu       sync.Mutex
	last     solve.Request
	calls    int
}

func (c *captureSolver) Info() solve.Info {
	return solve.Info{Name: c.name, Algorithm: "capture over MST", Problem: "test",
		Objective: "record the request", Weighted: c.weighted}
}

func (c *captureSolver) Validate(*solve.Instance, solve.Request) error { return nil }

func (c *captureSolver) Solve(ctx context.Context, inst *solve.Instance, req solve.Request) (*solve.Result, error) {
	c.mu.Lock()
	c.last = req
	c.calls++
	c.mu.Unlock()
	s, err := solve.MinStorage(inst)
	if err != nil {
		return nil, err
	}
	return &solve.Result{Solution: s, Solver: c.name}, nil
}

func (c *captureSolver) lastRequest() solve.Request {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.last
}

var (
	captureWeighted = &captureSolver{name: "capture-w", weighted: true}
	capturePlain    = &captureSolver{name: "capture-plain"}
)

func init() {
	solve.Register(captureWeighted)
	solve.Register(capturePlain)
}

// skewedRepo commits n versions and checks the hot ones out repeatedly.
func skewedRepo(t *testing.T, n, hot, accesses int) *Repo {
	t.Helper()
	r, err := InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 30+i), "v"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	for i := 0; i < accesses; i++ {
		if _, err := r.Checkout(i % hot); err != nil {
			t.Fatalf("Checkout: %v", err)
		}
	}
	return r
}

func TestOptimizeAutoWeightsReachWeightedSolver(t *testing.T) {
	r := skewedRepo(t, 10, 2, 40)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "capture-w"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	got := captureWeighted.lastRequest()
	if got.Weights == nil {
		t.Fatal("weighted solver received no auto-derived weights despite telemetry")
	}
	if len(got.Weights) != 10 {
		t.Fatalf("weights length %d, want 10 (snapshot size)", len(got.Weights))
	}
	// Versions 0 and 1 took nearly all the checkouts; any cold version must
	// weigh less.
	if got.Weights[0] <= got.Weights[7] || got.Weights[1] <= got.Weights[7] {
		t.Fatalf("hot versions not up-weighted: %v", got.Weights)
	}
}

func TestOptimizeNoAutoWeightsForcesUniform(t *testing.T) {
	r := skewedRepo(t, 8, 2, 30)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request:       solve.Request{Solver: "capture-w"},
		NoAutoWeights: true,
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if w := captureWeighted.lastRequest().Weights; w != nil {
		t.Fatalf("NoAutoWeights still passed weights: %v", w)
	}
}

func TestOptimizeExplicitWeightsWin(t *testing.T) {
	r := skewedRepo(t, 4, 2, 20)
	explicit := []float64{9, 1, 1, 1}
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "capture-w", Weights: explicit},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	got := captureWeighted.lastRequest().Weights
	if len(got) != 4 || got[0] != 9 {
		t.Fatalf("explicit weights were replaced: %v", got)
	}
}

func TestOptimizeUnweightedSolverGetsNoWeights(t *testing.T) {
	r := skewedRepo(t, 6, 2, 30)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "capture-plain"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if w := capturePlain.lastRequest().Weights; w != nil {
		t.Fatalf("non-weighted solver was handed weights: %v", w)
	}
}

func TestWeightsPersistAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r, err := Init(dir)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		if _, err := r.Commit(DefaultBranch, csvPayload(t, rng, 25), "v"); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Checkout(1); err != nil {
			t.Fatalf("Checkout: %v", err)
		}
	}
	if err := r.AccessStats().Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	before := r.Stats().Accesses

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := re.Stats().Accesses; got != before {
		t.Fatalf("accesses after reopen = %d, want %d", got, before)
	}
	w := re.Weights()
	if w == nil || w[1] <= w[3] {
		t.Fatalf("reopened weights lost the hot set: %v", w)
	}
}

func TestWeightedPhiTracksSkew(t *testing.T) {
	r := skewedRepo(t, 12, 12, 12) // uniform accesses
	uniform := r.WeightedPhi()
	if uniform <= 0 {
		t.Fatalf("WeightedPhi = %v, want > 0", uniform)
	}
	// Hammer the deepest version (longest delta chain, largest cold Φ): the
	// weighted estimate must rise above the near-uniform baseline.
	for i := 0; i < 500; i++ {
		if _, err := r.Checkout(11); err != nil {
			t.Fatalf("Checkout: %v", err)
		}
	}
	if skewed := r.WeightedPhi(); skewed <= uniform {
		t.Fatalf("WeightedPhi after hammering deepest version = %v, want > %v", skewed, uniform)
	}
}

// TestCommitsRecordNoAccesses: access telemetry counts serving reads only.
// A commit reads its parent to diff against it, but that read serves no
// client, so commits with no checkouts leave every weight at its prior.
func TestCommitsRecordNoAccesses(t *testing.T) {
	r := newRepo(t)
	seedRepo(t, r, 10)
	if got := r.Stats().Accesses; got != 0 {
		t.Errorf("10 commits recorded %d accesses, want 0", got)
	}
	if w := r.Weights(); w != nil {
		t.Errorf("Weights() = %v after commits alone, want nil (uniform prior)", w)
	}
	if _, err := r.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if got := r.Stats().Accesses; got != 1 {
		t.Errorf("one checkout recorded %d accesses, want 1", got)
	}
}

// TestCommitsWithoutReadsAppendOnce: with nothing read there is no
// telemetry to flush, so each commit is exactly one metadata-log append.
func TestCommitsWithoutReadsAppendOnce(t *testing.T) {
	r := newRepo(t)
	const n = 10
	seedRepo(t, r, n)
	if got := r.Stats().Log.Appends; got != n {
		t.Errorf("%d commits made %d log appends, want %d", n, got, n)
	}
}
