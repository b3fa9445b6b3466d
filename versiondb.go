// Package versiondb is a dataset versioning library that balances storage
// cost against recreation cost, implementing "Principles of Dataset
// Versioning: Exploring the Recreation/Storage Tradeoff" (Bhattacherjee et
// al., VLDB 2015).
//
// The library answers one question: given many versions of a dataset and
// the costs of storing each version whole (Δii, Φii) or as a delta from
// another version (Δij, Φij), which versions should be materialized and
// which stored as deltas? Solutions are spanning trees of an augmented
// graph rooted at a dummy vertex (paper §2.2); six optimization problems
// trade the two costs in different ways (paper Table 1):
//
//	Problem 1  min storage                         → "mst" (MST/MCA)
//	Problem 2  min every recreation cost           → "spt" (SPT)
//	Problem 3  min Σ recreation s.t. storage ≤ β   → "lmg" (Budget)
//	Problem 4  min max recreation s.t. storage ≤ β → "p4" (MP + search; Budget)
//	Problem 5  min storage s.t. Σ recreation ≤ θ   → "p5" (LMG + search; Theta)
//	Problem 6  min storage s.t. max recreation ≤ θ → "mp" (Theta), "exact" (B&B)
//
// plus "last" (the §4.3 MST/SPT balance, Alpha) and "gith" (the §4.4 Git
// baseline, Window/MaxDepth). Every solver sits behind one request/result
// API: a Request names a registered solver and carries its knobs, Solve
// dispatches through the registry under a context.Context (cancelable
// mid-solve), and failures are normalized sentinels (ErrUnknownSolver,
// ErrInvalidRequest, ErrInfeasible, ErrCanceled). A typical session
// builds a cost Matrix, wraps it in an Instance, and solves:
//
//	m := versiondb.NewMatrix(3, true)
//	m.SetFull(0, 1000, 1000)
//	m.SetFull(1, 1010, 1010)
//	m.SetFull(2, 1020, 1020)
//	m.SetDelta(0, 1, 25, 25)
//	m.SetDelta(1, 2, 30, 30)
//	inst, _ := versiondb.NewInstance(m)
//	res, _ := versiondb.Solve(ctx, inst, versiondb.Request{Solver: "lmg", Budget: 1100})
//
// Solvers() lists the registry with each solver's paper problem and
// declared constraint; Budgets and Thetas interpolate knob values between
// the MST and SPT envelopes for tradeoff sweeps.
//
// Beyond the solvers, the module ships every substrate of the paper's
// prototype: differencing algorithms (internal/delta), a content-addressed
// store with delta-chain layouts (internal/store), a Git-like dataset
// repository with an HTTP server and client (internal/repo, internal/vcs),
// workload generators (internal/workload), and a benchmark harness that
// regenerates each table and figure of the evaluation (internal/bench,
// cmd/vbench).
//
// # Storage backends, caching, and concurrency
//
// The physical layer is pluggable: every layout reads and writes blobs
// through the one Backend interface (Put/Get/GetStream/Has/Delete/List
// over content-addressed blobs, atomic named-metadata documents, and the
// append-only log a repository's metadata lives in). Two local
// implementations ship — the loose-objects+packfile filesystem store
// (OpenObjectStore) and a concurrency-safe in-memory store (NewMemStore)
// for serving replicas and tests:
//
//	r, _ := versiondb.InitRepoBackend(versiondb.NewMemStore())
//	r.EnableCache(64)            // LRU counted in versions, or:
//	r.EnableCacheBytes(64 << 20) // LRU under a hard byte budget
//
// Checkout cost is the paper's recreation cost Φ; the checkout LRU bounds
// the effective Φ on the hot path, so a repeat checkout (or one whose
// chain passes a cached ancestor) skips delta replay partially or
// entirely. EnableCache bounds the LRU by version count; EnableCacheBytes
// bounds it by resident payload bytes — a hard memory envelope under
// which payloads larger than the whole budget bypass admission.
// Concurrent cold checkouts of the same version coalesce onto a single
// chain materialization. The checkout of v and the commit of v both admit
// v, never the chain nodes a replay passes through, and the cache outlives
// Optimize's layout swaps. A Repo is a
// multi-reader service: checkouts, logs and stats proceed in parallel
// under a read lock while commits, merges and optimizations serialize
// behind the write lock; the HTTP server (internal/vcs) delegates
// concurrency control to the Repo.
package versiondb

import (
	"context"

	"versiondb/internal/autotune"
	"versiondb/internal/costs"
	"versiondb/internal/jobs"
	"versiondb/internal/repo"
	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/workload"
)

// Matrix holds the sparse Δ (storage) and Φ (recreation) cost matrices.
type Matrix = costs.Matrix

// Pair is a ⟨storage, recreation⟩ cost annotation.
type Pair = costs.Pair

// Scenario identifies the undirected/directed × Φ=Δ/Φ≠Δ regimes.
type Scenario = costs.Scenario

// Scenario constants (paper Table 1 columns).
const (
	UndirectedProportional = costs.UndirectedProportional
	DirectedProportional   = costs.DirectedProportional
	DirectedGeneral        = costs.DirectedGeneral
)

// NewMatrix returns an empty cost matrix over n versions.
func NewMatrix(n int, directed bool) *Matrix { return costs.NewMatrix(n, directed) }

// Instance is a cost matrix together with its augmented graph.
type Instance = solve.Instance

// Solution is a storage graph with its aggregate costs.
type Solution = solve.Solution

// NewInstance builds the augmented graph for a matrix.
func NewInstance(m *Matrix) (*Instance, error) { return solve.NewInstance(m) }

// Request names a registered solver and carries every knob the solvers
// accept (Budget, Theta, Alpha, Weights, Iters, Window, MaxDepth,
// MaxNodes).
type Request = solve.Request

// Result is a solve outcome: the Solution plus the producing solver's name
// and optimality metadata.
type Result = solve.Result

// SolverInfo is a registered solver's capability record (paper problem,
// objective, declared constraint, sweep knob).
type SolverInfo = solve.Info

// Normalized solver errors; test with errors.Is.
var (
	// ErrUnknownSolver: the Request names no registered solver.
	ErrUnknownSolver = solve.ErrUnknownSolver
	// ErrInvalidRequest: a knob fails the named solver's validation.
	ErrInvalidRequest = solve.ErrInvalidRequest
	// ErrInfeasible: no spanning tree satisfies the requested constraint.
	ErrInfeasible = solve.ErrInfeasible
	// ErrCanceled: the context was canceled mid-solve.
	ErrCanceled = solve.ErrCanceled
)

// Solve is the unified solver entry point: it dispatches req through the
// registry under ctx. Iterative solvers (LMG, MP, the binary searches, the
// exact branch and bound) honor cancellation mid-solve.
func Solve(ctx context.Context, inst *Instance, req Request) (*Result, error) {
	return solve.Solve(ctx, inst, req)
}

// Solvers lists every registered solver's capability record, sorted by
// name.
func Solvers() []SolverInfo { return solve.Solvers() }

// SolverNames lists the registered solver names, sorted.
func SolverNames() []string { return solve.Names() }

// Budgets interpolates k storage budgets between the MST and SPT costs.
func Budgets(inst *Instance, k int) ([]float64, error) { return solve.Budgets(inst, k) }

// Thetas interpolates k max-recreation bounds between the SPT and MST.
func Thetas(inst *Instance, k int) ([]float64, error) { return solve.Thetas(inst, k) }

// Online incrementally maintains a storage graph as versions arrive — the
// online variant the paper lists as future work (§7).
type Online = solve.Online

// OnlineOptions configure an Online store.
type OnlineOptions = solve.OnlineOptions

// Online placement policies.
const (
	OnlineMinDelta = solve.OnlineMinDelta
	OnlineBounded  = solve.OnlineBounded
)

// NewOnline returns an empty online store.
func NewOnline(opts OnlineOptions) *Online { return solve.NewOnline(opts) }

// Backend is the pluggable content-addressed blob store beneath every
// repository and layout.
type Backend = store.Backend

// MetaStore persists small named metadata documents atomically; it is
// part of the Backend contract.
type MetaStore = store.MetaStore

// LogStore is a backend's append-only log support: a repository persists
// its metadata as an append-only record log with snapshot compaction and
// crash-recovery replay. It is part of the Backend contract.
type LogStore = store.LogStore

// ObjectStore is the filesystem backend (loose objects + packfiles).
type ObjectStore = store.ObjectStore

// MemStore is the concurrency-safe in-memory backend.
type MemStore = store.MemStore

// VersionCache is the bounded LRU of materialized versions used on the
// checkout path — bounded by version count (NewVersionCache /
// Repo.EnableCache) or by resident payload bytes (NewVersionCacheBytes /
// Repo.EnableCacheBytes).
type VersionCache = store.VersionCache

// CacheStats is a snapshot of a VersionCache's counters and occupancy
// (hits, misses, evictions, resident entries and bytes, configured
// bounds); see Repo.CacheMetrics.
type CacheStats = store.CacheStats

// NewMemStore returns an empty in-memory backend.
func NewMemStore() *MemStore { return store.NewMemStore() }

// OpenObjectStore creates (if needed) and opens a filesystem backend.
func OpenObjectStore(dir string) (*ObjectStore, error) { return store.Open(dir) }

// Repo is the prototype dataset version management system. Optimize is
// copy-on-write: readers keep checking out while a re-layout solves, and
// the new layout is swapped in under a brief write lock with a conflict
// check against mid-solve commits (ErrOptimizeConflict after bounded
// retries).
type Repo = repo.Repo

// ErrOptimizeConflict is returned by Repo.Optimize when its layout swap
// kept losing to concurrent commits and the bounded retries ran out.
var ErrOptimizeConflict = repo.ErrOptimizeConflict

// GCResult reports one Repo.GC mark-and-sweep pass over the blob store:
// blobs scanned, blobs referenced by the current layout (or protected by
// an in-flight optimize build), and orphans deleted.
type GCResult = repo.GCResult

// JobManager runs background optimizations with bounded concurrency; the
// HTTP server uses one for POST /optimize?async=1 and the /jobs API.
type JobManager = jobs.Manager

// JobSnapshot is a race-free copy of one background job's state.
type JobSnapshot = jobs.Snapshot

// JobState is a background job's lifecycle position.
type JobState = jobs.State

// JobRunner is the function a background job executes.
type JobRunner = jobs.Runner

// Background job states: pending → running → done | failed | canceled.
const (
	JobPending  = jobs.StatePending
	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobFailed   = jobs.StateFailed
	JobCanceled = jobs.StateCanceled
)

// ErrUnknownJob marks a reference to a job id the manager never issued.
var ErrUnknownJob = jobs.ErrUnknownJob

// NewJobManager returns a manager executing at most workers jobs at once
// (≤ 0 selects the default).
func NewJobManager(workers int) *JobManager { return jobs.NewManager(workers) }

// VersionInfo is one committed version's record.
type VersionInfo = repo.VersionInfo

// OptimizeOptions configure Repo.Optimize.
type OptimizeOptions = repo.OptimizeOptions

// InitRepo creates a filesystem-backed repository at dir.
func InitRepo(dir string) (*Repo, error) { return repo.Init(dir) }

// OpenRepo opens an existing filesystem-backed repository.
func OpenRepo(dir string) (*Repo, error) { return repo.Open(dir) }

// InitRepoBackend creates a repository over an arbitrary backend.
func InitRepoBackend(b Backend) (*Repo, error) { return repo.InitBackend(b) }

// OpenRepoBackend opens an existing repository from an arbitrary backend.
func OpenRepoBackend(b Backend) (*Repo, error) { return repo.OpenBackend(b) }

// AccessStats is the per-version access telemetry (decaying counters)
// behind workload-aware optimization; every Repo maintains one and
// persists it through its metadata log. Reach it via
// Repo.AccessStats.
type AccessStats = store.AccessStats

// VersionAccess is one version's decayed access count, as returned by
// Repo.HotVersions.
type VersionAccess = store.VersionAccess

// AutotunePolicy configures the auto-optimization loop: how often to
// evaluate, the commit-count and Φ-drift thresholds that trigger a
// background re-layout, the debounce/backoff pacing, and the solver auto
// jobs run.
type AutotunePolicy = autotune.Policy

// AutotuneStatus is a race-free copy of the policy engine's externally
// visible state (trigger inputs, job counts, last outcome).
type AutotuneStatus = autotune.Status

// AutotuneEngine watches a repository and submits background re-layouts
// through a job manager when its policy triggers. The HTTP server runs one
// when started with the autotune option; embedders can drive their own.
type AutotuneEngine = autotune.Engine

// NewAutotuneEngine returns an engine evaluating p against r, submitting
// jobs through m. Start its loop with Run, or call Tick directly.
func NewAutotuneEngine(r *Repo, m *JobManager, p AutotunePolicy) *AutotuneEngine {
	return autotune.New(r, m, p)
}

// Preset names the paper's evaluation datasets (DC, LC, BF, LF).
type Preset = workload.Preset

// The four evaluation datasets of §5.1.
const (
	DC = workload.DC
	LC = workload.LC
	BF = workload.BF
	LF = workload.LF
)

// BuildWorkload constructs a preset evaluation dataset at a given scale.
func BuildWorkload(p Preset, n int, directed bool, seed int64) (*Matrix, error) {
	return workload.Build(p, n, directed, seed)
}

// Zipf returns Zipfian access frequencies for workload-aware optimization.
func Zipf(n int, exponent float64, seed int64) []float64 {
	return workload.Zipf(n, exponent, seed)
}
