package repo

// The copy-on-write Optimize concurrency harness. The property under test
// is the paper's serving-at-scale requirement: checkouts proceed with
// bounded latency while a (deliberately slow) solver re-plans the layout,
// and the swap never publishes a torn layout. The shared solvetest.Gate
// solver blocks inside solve.Solve until the test releases it, making
// "the solver is running right now" a deterministic program point instead
// of a sleep.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"versiondb/internal/solve"
	"versiondb/internal/solvetest"
)

var gate = solvetest.NewGate("gate")

func init() { solve.Register(gate) }

// seedRepo commits n random CSV payloads and returns them.
func seedRepo(t *testing.T, r *Repo, n int) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := csvPayload(t, rng, 30+i)
		if _, err := r.Commit(DefaultBranch, p, fmt.Sprintf("seed %d", i)); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

// TestCheckoutUnblockedDuringSlowSolve is the acceptance-criterion test: a
// checkout issued while the solver is provably mid-solve must complete
// before the solver is released — it cannot be waiting on the solver — and
// within a wall-clock bound.
func TestCheckoutUnblockedDuringSlowSolve(t *testing.T) {
	r := newRepo(t)
	r.EnableCache(4)
	payloads := seedRepo(t, r, 6)

	started, release := gate.Arm()
	defer gate.Disarm()
	optErr := make(chan error, 1)
	optRes := make(chan *solve.Result, 1)
	go func() {
		res, err := r.Optimize(context.Background(), OptimizeOptions{
			Request: solve.Request{Solver: "gate"},
		})
		optRes <- res
		optErr <- err
	}()

	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never started")
	}
	// The solver is now blocked inside Solve with no repository lock held.
	// Every version must check out correctly before the gate opens.
	const latencyBound = 5 * time.Second // generous CI bound; real cost is µs
	for v, want := range payloads {
		done := make(chan []byte, 1)
		errc := make(chan error, 1)
		begin := time.Now()
		go func() {
			got, err := r.Checkout(v)
			if err != nil {
				errc <- err
				return
			}
			done <- got
		}()
		select {
		case got := <-done:
			if d := time.Since(begin); d > latencyBound {
				t.Errorf("checkout %d took %v mid-solve, bound %v", v, d, latencyBound)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("checkout %d mid-solve returned wrong content", v)
			}
		case err := <-errc:
			t.Fatalf("checkout %d mid-solve: %v", v, err)
		case <-time.After(latencyBound):
			t.Fatalf("checkout %d still blocked after %v while solver runs — readers are not unblocked", v, latencyBound)
		}
	}
	close(release)
	if err := <-optErr; err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res := <-optRes; res.Solver != "gate" {
		t.Errorf("result solver %q, want gate", res.Solver)
	}
	// The swapped layout still serves every version.
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil {
			t.Fatalf("checkout %d post-swap: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("checkout %d post-swap returned wrong content", v)
		}
	}
}

// TestMidSolveCommitTriggersConflictRetry proves the swap's conflict
// check: a commit landing while the solver runs forces a re-snapshot, the
// conflict counter advances, and the retried layout includes the new
// version. The retry reuses the pairs the lost attempt sized: it sizes
// only the pairs that touch the version committed mid-solve.
func TestMidSolveCommitTriggersConflictRetry(t *testing.T) {
	r := newRepo(t)
	payloads := seedRepo(t, r, 4)
	before, _ := revealedCount(r, 5, 0)

	started, release := gate.Arm()
	defer gate.Disarm()
	optErr := make(chan error, 1)
	sizedAtRetry := make(chan int64, 4)
	go func() {
		_, err := r.Optimize(context.Background(), OptimizeOptions{
			Request: solve.Request{Solver: "gate"},
			Progress: func(phase string) {
				if phase == "retry" {
					sizedAtRetry <- r.pairsSized.Load()
				}
			},
		})
		optErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never started")
	}
	// Land a commit while attempt 1 is mid-solve, then open the gate: the
	// swap must detect the conflict and attempt 2 (gate now open) succeeds.
	extra := []byte("city,pop\nberlin,3748148\n")
	if _, err := r.Commit(DefaultBranch, extra, "mid-solve commit"); err != nil {
		t.Fatalf("mid-solve Commit: %v", err)
	}
	payloads = append(payloads, extra)
	close(release)
	if err := <-optErr; err != nil {
		t.Fatalf("Optimize after conflict: %v", err)
	}
	if got := r.OptimizeConflicts(); got < 1 {
		t.Errorf("OptimizeConflicts = %d, want ≥ 1 (swap must have lost to the commit)", got)
	}
	if got := <-sizedAtRetry; got != int64(before) {
		t.Errorf("the lost attempt sized %d pairs, want all %d revealed among the first 4 versions", got, before)
	}
	if _, touching := revealedCount(r, 5, 4); r.pairsSized.Load() != int64(before+touching) {
		t.Errorf("Optimize sized %d pairs over both attempts, want %d: the retry should size only the %d touching the mid-solve commit",
			r.pairsSized.Load(), before+touching, touching)
	}
	if n := r.NumVersions(); n != len(payloads) {
		t.Fatalf("NumVersions = %d, want %d", n, len(payloads))
	}
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("checkout %d after conflict retry returned wrong content", v)
		}
	}
}

// TestConflictRetriesExhausted: with retries disabled, a mid-solve commit
// surfaces ErrOptimizeConflict and leaves the served layout untouched.
func TestConflictRetriesExhausted(t *testing.T) {
	r := newRepo(t)
	payloads := seedRepo(t, r, 3)

	started, release := gate.Arm()
	defer gate.Disarm()
	optErr := make(chan error, 1)
	go func() {
		_, err := r.Optimize(context.Background(), OptimizeOptions{
			Request:         solve.Request{Solver: "gate"},
			ConflictRetries: -1,
		})
		optErr <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("solver never started")
	}
	extra := []byte("k,v\nconflict,1\n")
	if _, err := r.Commit(DefaultBranch, extra, "conflicting"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	close(release)
	if err := <-optErr; !errors.Is(err, ErrOptimizeConflict) {
		t.Fatalf("Optimize = %v, want ErrOptimizeConflict", err)
	}
	// Served state is intact: all versions, including the conflicting one.
	payloads = append(payloads, extra)
	for v, want := range payloads {
		got, err := r.Checkout(v)
		if err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("checkout %d content wrong after failed swap", v)
		}
	}
}

// TestCacheSettingSurvivesSwap: the cache EnableCache installed must
// still serve after the swap (the paper's hot-checkout regime depends on
// it).
func TestCacheSettingSurvivesSwap(t *testing.T) {
	r := newRepo(t)
	r.EnableCache(8)
	seedRepo(t, r, 5)
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "mst"},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	// The swap keeps the cache, which the commits filled: checkouts after
	// it hit.
	if _, err := r.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if _, err := r.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	cs := r.CacheMetrics()
	if cs.Hits == 0 {
		t.Errorf("post-swap cache recorded no hits (hits=%d misses=%d) — cache lost in the swap", cs.Hits, cs.Misses)
	}
}

// TestOptimizeProgressPhases: the Progress callback observes the
// copy-on-write pipeline in order.
func TestOptimizeProgressPhases(t *testing.T) {
	r := newRepo(t)
	seedRepo(t, r, 3)
	var mu sync.Mutex
	var phases []string
	if _, err := r.Optimize(context.Background(), OptimizeOptions{
		Request: solve.Request{Solver: "mst"},
		Progress: func(p string) {
			mu.Lock()
			phases = append(phases, p)
			mu.Unlock()
		},
	}); err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	want := []string{"snapshot", "diff", "solve", "rewrite", "swap"}
	mu.Lock()
	defer mu.Unlock()
	if len(phases) != len(want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
	for i := range want {
		if phases[i] != want[i] {
			t.Fatalf("phases %v, want %v", phases, want)
		}
	}
}

// TestOptimizeSolvePhaseCoversRequest: resolving the solve request (a
// default budget, auto-weights) belongs to the solve phase, so a request
// solveRequest rejects fails after "solve" has fired, not during "diff".
func TestOptimizeSolvePhaseCoversRequest(t *testing.T) {
	r := newRepo(t)
	seedRepo(t, r, 3)
	var phases []string
	_, err := r.Optimize(context.Background(), OptimizeOptions{
		Request:  solve.Request{Solver: "nope"},
		Progress: func(p string) { phases = append(phases, p) },
	})
	if !errors.Is(err, solve.ErrUnknownSolver) {
		t.Fatalf("Optimize err = %v, want ErrUnknownSolver", err)
	}
	if want := []string{"snapshot", "diff", "solve"}; fmt.Sprint(phases) != fmt.Sprint(want) {
		t.Fatalf("phases %v, want %v", phases, want)
	}
}

// TestOptimizeStressUnderCommitsAndCheckouts hammers the repository with
// concurrent committers and checkouters while optimizations run, asserting
// no torn layout is ever observed: every checkout returns exactly the
// bytes that were committed for that version. Run with -race.
func TestOptimizeStressUnderCommitsAndCheckouts(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := newRepo(t)
	r.EnableCache(16)

	// committed[v] is the payload of version v; guarded by cmu and
	// append-only, mirroring the repository's own semantics.
	var cmu sync.Mutex
	var committed [][]byte
	commit := func(p []byte) error {
		cmu.Lock()
		defer cmu.Unlock()
		if _, err := r.Commit(DefaultBranch, p, "stress"); err != nil {
			return err
		}
		committed = append(committed, p)
		return nil
	}
	snapshotLen := func() int {
		cmu.Lock()
		defer cmu.Unlock()
		return len(committed)
	}
	payloadOf := func(v int) []byte {
		cmu.Lock()
		defer cmu.Unlock()
		return committed[v]
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		if err := commit(csvPayload(t, rng, 40+i)); err != nil {
			t.Fatalf("seed commit: %v", err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// Committers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := commit(csvPayload(t, rng, 20+rng.Intn(40))); err != nil {
					fail("commit: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}(int64(100 + g))
	}
	// Checkouters: verify content integrity on every read.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := snapshotLen()
				if n == 0 {
					continue
				}
				v := rng.Intn(n)
				got, err := r.Checkout(v)
				if err != nil {
					fail("checkout %d: %v", v, err)
					return
				}
				if !bytes.Equal(got, payloadOf(v)) {
					fail("torn layout: checkout %d returned wrong content", v)
					return
				}
			}
		}(int64(200 + g))
	}
	// Optimizer: repeated re-layouts racing the writers; conflicts are
	// expected and must resolve via retry (or surface ErrOptimizeConflict,
	// which is legal under sustained commit pressure — but never corrupt).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, err := r.Optimize(context.Background(), OptimizeOptions{
				Request:         solve.Request{Solver: "mst"},
				ConflictRetries: 5,
			})
			if err != nil && !errors.Is(err, ErrOptimizeConflict) {
				fail("optimize: %v", err)
				return
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// Final integrity pass over everything committed.
	n := snapshotLen()
	for v := 0; v < n; v++ {
		got, err := r.Checkout(v)
		if err != nil {
			t.Fatalf("final checkout %d: %v", v, err)
		}
		if !bytes.Equal(got, payloadOf(v)) {
			t.Errorf("final checkout %d returned wrong content", v)
		}
	}
	t.Logf("stress: %d versions, %d optimize conflicts", n, r.OptimizeConflicts())
}
