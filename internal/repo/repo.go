// Package repo implements the paper's prototype version management system
// (§5): a Git/SVN-like repository for datasets with commit, checkout,
// branch and user-performed merge (multi-parent commits), a persisted
// version graph, and an Optimize step that rebuilds the physical storage
// layout using the paper's algorithms — the piece that distinguishes this
// prototype from a conventional VCS.
//
// A Repo is a concurrency-safe service: readers (Checkout, Log, Stats,
// Tip, Branches) proceed in parallel under a read lock while writers
// (Commit, Merge, Branch, Repack) serialize behind the write lock.
// Optimize is copy-on-write: it snapshots under a short read lock, solves
// and materializes a shadow layout off-lock, and swaps the layout pointer
// under a brief write lock with a conflict check — so re-layouts never
// block checkouts for the duration of a solve. The physical layer is a
// pluggable store.Backend; metadata is persisted as an append-only record
// log on the backend (see wal.go).
package repo

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"versiondb/internal/costs"
	"versiondb/internal/delta"
	"versiondb/internal/graph"
	"versiondb/internal/solve"
	"versiondb/internal/store"
	"versiondb/internal/store/metalog"
)

// Sentinel errors let callers (notably the HTTP server) distinguish
// missing resources from conflicts and internal faults.
var (
	// ErrUnknownVersion marks a reference to a version that does not exist.
	ErrUnknownVersion = errors.New("unknown version")
	// ErrUnknownBranch marks a reference to a branch that does not exist.
	ErrUnknownBranch = errors.New("unknown branch")
	// ErrBranchExists marks an attempt to create a branch that exists.
	ErrBranchExists = errors.New("branch already exists")
	// ErrEmptyRepo marks an operation that needs at least one version.
	ErrEmptyRepo = errors.New("empty repository")
	// ErrInvalidMerge marks a merge whose parents cannot form a commit.
	ErrInvalidMerge = errors.New("invalid merge")
	// ErrOptimizeConflict marks an Optimize whose copy-on-write layout swap
	// kept losing to concurrent commits: every attempt found new versions
	// committed after its snapshot, and the bounded retries ran out.
	ErrOptimizeConflict = errors.New("optimize conflicted with concurrent commits")
)

// VersionInfo records one committed dataset version.
type VersionInfo struct {
	ID      int       `json:"id"`
	Parents []int     `json:"parents"` // empty for the root commit
	Message string    `json:"message"`
	Branch  string    `json:"branch"`
	Size    int64     `json:"size"`
	Time    time.Time `json:"time"`
	// Hash is the hex SHA-256 of the payload, recorded at commit time. It
	// doubles as the strong ETag of GET /checkout/raw, so a conditional
	// re-fetch can be answered 304 without touching a single blob. Replay
	// refuses a version without one.
	Hash string `json:"hash,omitempty"`
}

type meta struct {
	Versions []VersionInfo  `json:"versions"`
	Branches map[string]int `json:"branches"` // branch → tip version id
}

// Repo is a dataset repository over a pluggable storage backend.
type Repo struct {
	mu      sync.RWMutex
	backend store.Backend
	layout  *store.Layout
	meta    meta

	// retiredBlobReads accumulates the backend blob reads of layouts
	// retired by Optimize swaps, so BlobReads stays monotonic across
	// re-layouts (each fresh layout starts its own counter at zero).
	retiredBlobReads atomic.Int64

	// stats is the access telemetry feeding workload-aware optimization:
	// serving checkouts record per-version counters (with exponential
	// decay), Weights derives normalized frequencies from them, and
	// Optimize feeds those into weight-consuming solvers by default. The
	// structure has its own lock and is persisted through the metadata log.
	stats *store.AccessStats

	// optMu serializes Optimize calls with each other (never with readers
	// or committers): two re-layouts racing to swap would silently discard
	// one solve's work.
	optMu sync.Mutex
	// optConflicts counts copy-on-write swap attempts that found commits
	// landed mid-solve and had to re-snapshot.
	optConflicts atomic.Int64
	// pairs memoizes the delta sizes of every version pair Optimize's
	// diff phase has sized, keyed by version id (ids are append-only and
	// payloads immutable, so an entry never goes stale). Guarded by mu and
	// never modified once installed: Optimize reads it in its snapshot and
	// uses it off-lock, and a swap installs a merged copy. It persists in
	// the swap records and the snapshot (see wal.go).
	pairs costs.PairSizes
	// pairsSized counts the pairs Optimize found missing from the memo and
	// differenced, over all attempts.
	pairsSized atomic.Int64

	// log is the append-only metadata record log, the repository's durable
	// form; nil only on a replica, which never writes.
	log *metalog.Log

	// shadowMu guards shadow: blob addresses a concurrent Optimize has
	// registered ahead of writing, which GC must not collect even though no
	// entry references them yet. Values are refcounts (two racing Optimize
	// attempts may register the same address).
	shadowMu sync.Mutex
	shadow   map[store.ID]int

	// jobMu guards the durable-job bookkeeping replayed from the log:
	// outstanding job specs, submission order, the started subset, and the
	// ids recovered (vs submitted live). It ranks between the repository
	// lock and the log mutex; journal appends happen while holding it.
	jobMu           sync.Mutex
	jobsOutstanding map[string]string
	jobsOrder       []string
	jobsRunning     map[string]bool
	recoveredOrder  []string

	// gcRuns / gcCollected count mark-and-sweep passes and the orphan
	// blobs they deleted.
	gcRuns      atomic.Int64
	gcCollected atomic.Int64

	// replica marks a read-only follower (see OpenReplica): every mutating
	// entry point answers ErrReplica and nothing is ever persisted.
	// appliedSeq / lastApply (guarded by mu) are the replay cursor —
	// the last metadata-log sequence folded in and when.
	replica    bool
	appliedSeq uint64
	lastApply  time.Time
}

// DefaultBranch is the branch created by Init.
const DefaultBranch = "master"

// Init creates a new filesystem-backed repository at dir.
func Init(dir string) (*Repo, error) {
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	r, err := InitBackend(s)
	if err != nil && errors.Is(err, errAlreadyInitialized) {
		return nil, fmt.Errorf("repo: %s already initialized", dir)
	}
	return r, err
}

var errAlreadyInitialized = errors.New("already initialized")

// newRepoShell allocates a repository shell with every map initialized.
func newRepoShell(b store.Backend) *Repo {
	return &Repo{
		backend:         b,
		meta:            meta{Branches: map[string]int{}},
		shadow:          map[store.ID]int{},
		jobsOutstanding: map[string]string{},
		jobsRunning:     map[string]bool{},
	}
}

// metaName marks a repository of the whole-document format that preceded
// the metadata log. Nothing reads it; its presence alone makes OpenBackend
// and InitBackend refuse the backend, whose blobs a fresh log's GC would
// collect as orphans.
const metaName = "meta.json"

// InitBackend creates a new repository over an arbitrary backend, which
// must not already hold one; commits append records to its metadata log.
func InitBackend(b store.Backend) (*Repo, error) {
	if _, err := b.GetMeta(metaName); err == nil {
		return nil, fmt.Errorf("repo: backend: %w", errAlreadyInitialized)
	} else if !errors.Is(err, fs.ErrNotExist) {
		// An unreadable meta.json is not license to overwrite a repository
		// that may exist behind it.
		return nil, fmt.Errorf("repo: init: %w", err)
	}
	l, rec, err := metalog.Open(b, b, walName)
	if err != nil {
		return nil, fmt.Errorf("repo: init: %w", err)
	}
	if rec.Snapshot != nil || len(rec.Records) > 0 {
		_ = l.Close()
		return nil, fmt.Errorf("repo: backend: %w", errAlreadyInitialized)
	}
	r := newRepoShell(b)
	r.layout = emptyLayout(b)
	r.log = l
	r.stats = store.NewAccessStats()
	r.stats.SetSink(r.accessSink)
	// The initial empty snapshot is what marks the repository as
	// initialized for future opens.
	if err := r.compact(); err != nil {
		return nil, err
	}
	return r, nil
}

// Open loads an existing filesystem-backed repository. A directory that
// holds no metadata log is refused, with OpenBackend's errors, before
// anything is created in it.
func Open(dir string) (*Repo, error) {
	if err := probeLog(dir); err != nil {
		return nil, err
	}
	s, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	return OpenBackend(s)
}

// OpenBackend loads an existing repository from an arbitrary backend. It
// recovers from the metadata log: snapshot load plus tail replay,
// tolerating a torn final record (the signature of a crash mid-append).
// A backend with no log answers "no repository", wrapping fs.ErrNotExist,
// unless it holds a repository of the pre-metalog whole-document format,
// which this build refuses.
func OpenBackend(b store.Backend) (*Repo, error) {
	l, rec, err := metalog.Open(b, b, walName)
	if err != nil {
		return nil, fmt.Errorf("repo: open: %w", err)
	}
	if rec.Snapshot == nil && len(rec.Records) == 0 {
		_ = l.Close()
		_, err := b.GetMeta(metaName)
		return nil, noLog(err)
	}
	r := newRepoShell(b)
	r.log = l
	if err := r.restore(rec); err != nil {
		_ = l.Close()
		return nil, err
	}
	r.recoveredOrder = append([]string(nil), r.jobsOrder...)
	return r, nil
}

// probeLog answers as OpenBackend does when dir holds neither the metadata
// log's device file nor its snapshot, since store.Open would create
// objects/ there, and metalog.Open the device file. A file that exists or
// cannot be examined leaves the answer to the open.
func probeLog(dir string) error {
	for _, name := range []string{walName + ".wal", walName + "_snapshot.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, fs.ErrNotExist) {
			return nil
		}
	}
	_, err := os.Stat(filepath.Join(dir, metaName))
	return noLog(err)
}

// noLog is the open error for a location without a metadata log, given
// what looking up meta.json there returned.
func noLog(metaErr error) error {
	switch {
	case metaErr == nil:
		return fmt.Errorf("repo: open: pre-metalog repository (%s, no metadata log): migrate it with an older build", metaName)
	case errors.Is(metaErr, fs.ErrNotExist):
		return fmt.Errorf("repo: open: no repository: %w", metaErr)
	default:
		return fmt.Errorf("repo: open: %w", metaErr)
	}
}

func emptyLayout(b store.Backend) *store.Layout {
	l, _ := store.BuildLayout(b, nil, graph.NewTree(1, 0), false, nil)
	return l
}

// EnableCache installs a bounded LRU of materialized versions on the
// checkout path, counted in versions (n ≤ 0 disables it) — the
// compatibility mode. It replaces any earlier cache, and starts empty.
// The cache lives as long as the repository: the checkout of v and the
// commit of v both admit v, and Optimize's layout swaps keep it, since a
// version's bytes do not depend on its layout.
func (r *Repo) EnableCache(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layout.SetCache(store.NewVersionCache(n))
}

// EnableCacheBytes installs a byte-budgeted LRU on the checkout path:
// resident payloads never sum to more than budget bytes, and payloads
// larger than the whole budget bypass admission (budget ≤ 0 disables the
// cache). In every other respect it is EnableCache.
func (r *Repo) EnableCacheBytes(budget int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.layout.SetCache(store.NewVersionCacheBytes(budget))
}

// CacheMetrics returns the full checkout-cache counter snapshot —
// hits, misses, evictions, resident entries and bytes, and the configured
// bounds. All zeros when the cache is disabled.
func (r *Repo) CacheMetrics() store.CacheStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.layout.Cache().Stats()
}

// DeltaApplications returns the cumulative number of deltas applied by
// checkouts against the current layout.
func (r *Repo) DeltaApplications() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.layout.DeltaApplications()
}

// BlobReads returns the cumulative number of backend blob fetches the
// serving path has performed, across layout swaps: cold checkout I/O that
// the cache and checkout coalescing did not absorb.
func (r *Repo) BlobReads() int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.retiredBlobReads.Load() + r.layout.BlobReads()
}

// NumVersions returns the number of committed versions.
func (r *Repo) NumVersions() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.meta.Versions)
}

// Branches returns branch names sorted lexicographically.
func (r *Repo) Branches() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.meta.Branches))
	for b := range r.meta.Branches {
		out = append(out, b)
	}
	sort.Strings(out)
	return out
}

// Tip returns the tip version of a branch.
func (r *Repo) Tip(branch string) (int, error) {
	branch = logString(branch)
	r.mu.RLock()
	defer r.mu.RUnlock()
	tip, ok := r.meta.Branches[branch]
	if !ok {
		return 0, fmt.Errorf("repo: %w %q", ErrUnknownBranch, branch)
	}
	return tip, nil
}

// Log returns all version records in commit order.
func (r *Repo) Log() []VersionInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]VersionInfo(nil), r.meta.Versions...)
}

// Commit records payload as a new version on branch. The first commit to a
// fresh repository creates the branch. New versions are stored as a delta
// against their parent when that is smaller than the payload; Optimize can
// later re-lay-out everything globally.
func (r *Repo) Commit(branch string, payload []byte, message string) (int, error) {
	if err := r.writable(); err != nil {
		return 0, err
	}
	branch, message = logString(branch), logString(message)
	r.mu.Lock()
	defer r.mu.Unlock()
	var parents []int
	if tip, ok := r.meta.Branches[branch]; ok {
		parents = []int{tip}
	} else if len(r.meta.Versions) > 0 {
		return 0, fmt.Errorf("repo: %w %q (use Branch to create it)", ErrUnknownBranch, branch)
	}
	return r.addVersionLocked(branch, payload, message, parents)
}

// Merge commits payload as a merge of branch's tip and other. Following the
// paper's prototype, the *user* performs the merge and hands the system the
// result: "unlike traditional VCS ... we let the user perform the merge and
// notify the system by creating a version with more than one parent."
func (r *Repo) Merge(branch string, other int, payload []byte, message string) (int, error) {
	if err := r.writable(); err != nil {
		return 0, err
	}
	branch, message = logString(branch), logString(message)
	r.mu.Lock()
	defer r.mu.Unlock()
	tip, ok := r.meta.Branches[branch]
	if !ok {
		return 0, fmt.Errorf("repo: %w %q", ErrUnknownBranch, branch)
	}
	if other < 0 || other >= len(r.meta.Versions) {
		return 0, fmt.Errorf("repo: merge source %d out of range: %w", other, ErrUnknownVersion)
	}
	if other == tip {
		return 0, fmt.Errorf("repo: merging %d into its own branch tip: %w", other, ErrInvalidMerge)
	}
	return r.addVersionLocked(branch, payload, message, []int{tip, other})
}

// Branch creates a new branch pointing at version from.
func (r *Repo) Branch(name string, from int) error {
	if err := r.writable(); err != nil {
		return err
	}
	name = logString(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.meta.Branches[name]; exists {
		return fmt.Errorf("repo: %w: %q", ErrBranchExists, name)
	}
	if from < 0 || from >= len(r.meta.Versions) {
		return fmt.Errorf("repo: branch source %d out of range: %w", from, ErrUnknownVersion)
	}
	r.meta.Branches[name] = from
	if err := r.persistBranch(name, from); err != nil {
		delete(r.meta.Branches, name)
		return err
	}
	return nil
}

// logString returns s as the metadata log reads it back. The log stores
// strings as JSON, which turns each byte that is not part of valid UTF-8
// into U+FFFD, so messages and branch names are normalized the same way on
// the way in: otherwise the served state would differ from what a reopen
// reads.
func logString(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// addVersionLocked appends a version; callers hold the write lock. On failure
// the in-memory version list and branch tip are rolled back so the served
// state stays consistent with what was last persisted.
func (r *Repo) addVersionLocked(branch string, payload []byte, message string, parents []int) (int, error) {
	id := len(r.meta.Versions)
	oldTip, hadBranch := r.meta.Branches[branch]
	rollback := func() {
		r.meta.Versions = r.meta.Versions[:id]
		if hadBranch {
			r.meta.Branches[branch] = oldTip
		} else {
			delete(r.meta.Branches, branch)
		}
	}
	info := VersionInfo{
		ID:      id,
		Parents: parents,
		Message: message,
		Branch:  branch,
		Size:    int64(len(payload)),
		Time:    time.Now().UTC(),
		Hash:    string(store.HashBytes(payload)),
	}
	r.meta.Versions = append(r.meta.Versions, info)
	r.meta.Branches[branch] = id
	// Incremental physical placement: delta against first parent when
	// profitable, else materialize. (Optimize re-balances globally.) A
	// payload that is not line-exact is always materialized: a line delta
	// would check it out with a newline it never had.
	entry := store.Entry{Parent: -1, Materialized: true}
	blob := payload
	if len(parents) > 0 && delta.LineExact(payload) {
		base, err := r.layout.Checkout(parents[0])
		if err != nil {
			rollback()
			return 0, err
		}
		d := delta.Encode(delta.DiffLines(base, payload), true)
		if len(d) < len(payload) {
			entry = store.Entry{Parent: parents[0], Materialized: false}
			blob = d
		}
	}
	bid, err := r.backend.Put(blob)
	if err != nil {
		rollback()
		return 0, err
	}
	entry.Blob = bid
	entry.StoredBytes = len(blob)
	r.layout.Entries = append(r.layout.Entries, entry)
	if err := r.persistCommit(info, entry); err != nil {
		r.layout.Entries = r.layout.Entries[:id]
		rollback()
		return 0, err
	}
	// Write through: the client's read-back and the next commit on the
	// branch both read v. The copy keeps the caller free to reuse payload.
	r.layout.Cache().PutCopy(id, payload)
	return id, nil
}

// Repack migrates loose blobs into a single packfile (git-repack style,
// §5.2); checkouts are unaffected. Only filesystem backends pack.
func (r *Repo) Repack() (string, error) {
	if err := r.writable(); err != nil {
		return "", err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	type repacker interface{ Repack() (string, error) }
	rp, ok := r.backend.(repacker)
	if !ok {
		return "", fmt.Errorf("repo: repack: backend %T does not support packfiles", r.backend)
	}
	return rp.Repack()
}

// Checkout reconstructs version v's payload. The returned slice may be
// shared — with the cache, and across concurrent checkouts of the same
// version coalescing onto one materialization — so always treat it as
// read-only.
func (r *Repo) Checkout(v int) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v < 0 || v >= len(r.meta.Versions) {
		return nil, fmt.Errorf("repo: version %d out of range [0,%d): %w", v, len(r.meta.Versions), ErrUnknownVersion)
	}
	payload, err := r.layout.Checkout(v)
	if err == nil {
		// Telemetry counts serving reads only. AccessStats has its own
		// lock and performs no blob I/O, so recording under the read lock
		// does not serialize checkouts.
		r.stats.Record(v)
	}
	return payload, err
}

// CheckoutStream reconstructs version v's payload as a stream, returning
// the reader, the payload size in bytes, and the construction error. The
// repository read lock is held only while the reader stack is constructed
// (chain metadata plus the chain's delta blobs — small reads); it is
// released before the caller consumes the body, so a slow client draining
// a large payload never blocks writers. The stack stays valid across a
// concurrent Optimize swap: its layout view is capacity-capped and its
// blobs content-addressed, so the retired layout's chain remains readable
// until the stream is closed. Callers must Close the stream.
func (r *Repo) CheckoutStream(v int) (io.ReadCloser, int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v < 0 || v >= len(r.meta.Versions) {
		return nil, 0, fmt.Errorf("repo: version %d out of range [0,%d): %w", v, len(r.meta.Versions), ErrUnknownVersion)
	}
	rc, size, err := r.layout.CheckoutStream(v)
	if err != nil {
		return nil, 0, err
	}
	if size < 0 {
		// Cold streams discover their length only at EOF; the commit
		// record already knows it.
		size = r.meta.Versions[v].Size
	}
	r.stats.Record(v)
	return rc, size, nil
}

// VersionHash returns the hex SHA-256 of version v's payload — the strong
// ETag served by GET /checkout/raw — from the commit record, without
// touching a blob.
func (r *Repo) VersionHash(v int) (string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v < 0 || v >= len(r.meta.Versions) {
		return "", fmt.Errorf("repo: version %d out of range [0,%d): %w", v, len(r.meta.Versions), ErrUnknownVersion)
	}
	return r.meta.Versions[v].Hash, nil
}

// Stats summarizes the repository's physical state.
type Stats struct {
	Versions     int
	Branches     int
	Materialized int
	StoredBytes  int64
	LogicalBytes int64 // Σ version sizes
	MaxChainHops int
	SumChainHops int
	CacheHits    uint64
	CacheMisses  uint64
	// CacheEvictions counts entries the checkout LRU pushed out to stay
	// within its bound (versions or bytes).
	CacheEvictions uint64
	// CacheEntries and CacheBytes are the LRU's current occupancy;
	// CacheBudgetBytes is the configured byte budget (0 in version-count
	// mode or with the cache disabled).
	CacheEntries     int
	CacheBytes       int64
	CacheBudgetBytes int64
	// BlobReads is the cumulative number of backend blob fetches on the
	// serving path, across layout swaps — the cold-checkout I/O the cache
	// and coalescing did not absorb.
	BlobReads int64
	// Accesses is the raw (undecayed) number of version accesses the
	// telemetry layer has recorded: serving checkouts only.
	Accesses uint64
	// Log is the metadata record log's counters (tail records, device
	// bytes, appends, compactions, records replayed at startup, torn tails
	// repaired); all zeros on a replica.
	Log metalog.Stats
	// GCRuns / GCCollected count mark-and-sweep passes and the orphan
	// blobs they deleted.
	GCRuns      int64
	GCCollected int64
	// Remote is the remote tier's counter snapshot (chunk cache traffic,
	// hedging outcomes, upload dedup) when the backend is tiered, nil for
	// purely local backends — consumers omit the section rather than
	// printing zeros.
	Remote *store.TierStats
	// RetrievalFactor is the backend's per-read cost multiplier relative
	// to a local disk read (1 for local backends); WeightedPhi and the
	// optimizer's Φ column are scaled by it.
	RetrievalFactor float64
}

// Stats computes the current storage statistics. Chain statistics come
// from the layout's memoized cold-cost accounting — one O(n) pass, not a
// chain walk per version.
func (r *Repo) Stats() Stats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	st := Stats{
		Versions:     len(r.meta.Versions),
		Branches:     len(r.meta.Branches),
		Materialized: r.layout.NumMaterialized(),
		StoredBytes:  r.layout.StoredBytes(),
		BlobReads:    r.retiredBlobReads.Load() + r.layout.BlobReads(),
	}
	cs := r.layout.Cache().Stats()
	st.CacheHits, st.CacheMisses, st.CacheEvictions = cs.Hits, cs.Misses, cs.Evictions
	st.CacheEntries, st.CacheBytes, st.CacheBudgetBytes = cs.Entries, cs.BytesResident, cs.BudgetBytes
	st.Accesses = r.stats.Total()
	if r.log != nil {
		st.Log = r.log.Stats()
	}
	st.GCRuns, st.GCCollected = r.gcRuns.Load(), r.gcCollected.Load()
	st.RetrievalFactor = r.retrievalFactor()
	if ts, ok := r.backend.(store.TierStatsReporter); ok {
		snap := ts.TierStats()
		st.Remote = &snap
	}
	for _, v := range r.meta.Versions {
		st.LogicalBytes += v.Size
	}
	_, hops := r.layout.ChainCosts()
	for _, h := range hops {
		if h < 0 {
			continue // corrupt chain; surfaced by checkout errors, not stats
		}
		st.SumChainHops += h
		if h > st.MaxChainHops {
			st.MaxChainHops = h
		}
	}
	return st
}

// retrievalFactor is the backend's per-read cost multiplier (see
// store.CostReporter and costs.TierCosts): 1 for local backends, the
// remote tier's configured factor otherwise. Factors ≤ 0 are ignored.
func (r *Repo) retrievalFactor() float64 {
	if cr, ok := r.backend.(store.CostReporter); ok {
		if f := cr.RetrievalCostFactor(); f > 0 {
			return f
		}
	}
	return 1
}

// AccessStats exposes the repository's access telemetry (counters with
// exponential decay; see store.AccessStats). It is safe for concurrent
// use. The pointer is read under the lock because a replica's snapshot
// reset replaces the whole structure.
func (r *Repo) AccessStats() *store.AccessStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.stats
}

// Weights derives normalized per-version access weights from the telemetry
// for the repository's current version count: decayed counters, Laplace
// smoothed, mean 1. It returns nil when no accesses have been recorded —
// callers treat nil as a uniform workload.
func (r *Repo) Weights() []float64 {
	r.mu.RLock()
	n := len(r.meta.Versions)
	stats := r.stats
	r.mu.RUnlock()
	return stats.Weights(n)
}

// HotVersions returns the k most-accessed versions by decayed count,
// descending.
func (r *Repo) HotVersions(k int) []store.VersionAccess {
	r.mu.RLock()
	stats := r.stats
	r.mu.RUnlock()
	return stats.TopK(k)
}

// WeightedPhi estimates the recreation cost the *current workload*
// experiences against the *current layout*: the access-weighted mean of
// each version's cold checkout work (stored bytes read and applied along
// its delta chain — the physical Φ). With no telemetry it is the plain
// mean. The estimate reads only layout metadata (no blob I/O) under the
// read lock, from the layout's memoized cold-cost DP — O(n) total rather
// than O(n·chain) — so the autotune policy engine can evaluate it on a
// timer without ever stalling the serving path. Autotune compares it
// across time to detect Φ-drift — the hot set wandering away from what
// the last re-layout optimized for, or fresh commits deepening chains.
func (r *Repo) WeightedPhi() float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := len(r.meta.Versions)
	if n == 0 {
		return 0
	}
	w := r.stats.Weights(n)
	work, _ := r.layout.ChainCosts()
	var sum, wsum float64
	for v := 0; v < n; v++ {
		if work[v] < 0 {
			continue // corrupt chain; excluded rather than poisoning the mean
		}
		wv := 1.0
		if w != nil {
			wv = w[v]
		}
		sum += wv * float64(work[v])
		wsum += wv
	}
	if wsum == 0 {
		return 0
	}
	// Price the bytes where they live: a remote tier multiplies every
	// cold read. The factor is constant across versions, so autotune's
	// drift *ratios* are unchanged — but absolute Φ comparisons (and the
	// operator reading `vms stats`) see the real three-level tradeoff.
	return sum / wsum * r.retrievalFactor()
}

// OptimizeOptions configure Optimize. The embedded solve.Request selects
// and parameterizes the solver; the remaining fields control cost-matrix
// construction, physical rewriting, and knob defaulting.
type OptimizeOptions struct {
	// Request names the registry solver ("mst", "lmg", "mp", "p4", ...)
	// and carries its knobs; an empty Request.Solver runs "mst". Unset
	// knobs the named solver requires are defaulted from the repository's
	// own cost envelope (see Optimize).
	Request solve.Request
	// BudgetFactor multiplies the MCA storage cost to produce a default
	// budget for budget-constrained solvers when Request.Budget is unset;
	// the paper's headline finding is that ~1.1× the minimum collapses
	// recreation cost. Default 1.25.
	BudgetFactor float64
	// RevealHops bounds the pairwise differencing radius. Default 5.
	RevealHops int
	// Compress stores blobs flate-compressed.
	Compress bool
	// ConflictRetries bounds how many times Optimize re-snapshots and
	// re-solves after its copy-on-write swap loses to concurrent commits.
	// 0 means the default of 2; negative disables retries.
	ConflictRetries int
	// NoAutoWeights disables telemetry-derived weights: when false (the
	// default) and the named solver consumes Request.Weights (per its
	// registry Info), Optimize fills an unset Request.Weights from the
	// repository's access statistics so the layout favors the observed hot
	// set. A caller-supplied Request.Weights always wins; NoAutoWeights
	// forces the uniform (unweighted) objective even with telemetry
	// present.
	NoAutoWeights bool
	// Progress, when non-nil, receives coarse phase names as the
	// optimization advances ("snapshot", "diff", "solve", "rewrite",
	// "swap", "retry"). It is called without any repository lock held and
	// must be safe for use from the optimizing goroutine.
	Progress func(phase string)
}

// solveRequest resolves opts into a fully-parameterized solve.Request
// against inst, defaulting any required knob the caller left unset: budgets
// from BudgetFactor × minimum storage, max-Φ bounds from twice the largest
// version size, Σ-Φ bounds from 1.25× the SPT minimum, α from 2. The MST or
// SPT a default was derived from rides along as req.Hints (unless the
// caller set Hints), so the solver does not compute it again. An empty
// solver name means "mst"; unknown names surface solve.ErrUnknownSolver.
// versions is the snapshot being optimized — not r.meta — so the request is
// consistent with the payloads even when commits land mid-solve. The
// resolved solver's capability record rides along so callers need not look
// it up again.
// retrievalFactor scales the one Φ-unit default derived from raw payload
// sizes (the max-Φ bound) so it stays consistent with a cost matrix whose
// Recreate column was scaled for a remote tier.
func solveRequest(inst *solve.Instance, versions []VersionInfo, opts OptimizeOptions, retrievalFactor float64) (solve.Request, solve.Info, error) {
	req := opts.Request
	if req.Solver == "" {
		req.Solver = "mst"
	}
	info, err := solve.Describe(req.Solver)
	if err != nil {
		return req, info, fmt.Errorf("repo: optimize: %w", err)
	}
	switch info.Knob {
	case solve.KnobBudget:
		if req.Budget <= 0 {
			mca, err := solve.MinStorage(inst)
			if err != nil {
				return req, info, err
			}
			f := opts.BudgetFactor
			if f <= 1 {
				f = 1.25
			}
			req.Budget = mca.Storage * f
			if req.Hints == nil {
				req.Hints = &solve.Hints{MST: mca}
			}
		}
	case solve.KnobThetaMax:
		if req.Theta <= 0 {
			var maxSize float64
			for _, v := range versions {
				if s := float64(v.Size); s > maxSize {
					maxSize = s
				}
			}
			req.Theta = 2 * maxSize * retrievalFactor
		}
	case solve.KnobThetaSum:
		if req.Theta <= 0 {
			spt, err := solve.MinRecreation(inst)
			if err != nil {
				return req, info, err
			}
			req.Theta = spt.SumR * 1.25
			if req.Hints == nil {
				req.Hints = &solve.Hints{SPT: spt}
			}
		}
	case solve.KnobAlpha:
		if req.Alpha <= 1 {
			req.Alpha = 2
		}
	}
	return req, info, nil
}

// Optimize recomputes the global storage layout copy-on-write: it snapshots
// the version graph and every payload under a short read lock, then — off
// every lock, with checkouts and commits proceeding concurrently —
// differences versions within the hop radius, builds the augmented graph,
// dispatches the resolved solve.Request through the solver registry, and
// materializes a shadow layout into the backend. Finally it reacquires the
// write lock just long enough to verify no commits landed since the
// snapshot and swap the layout pointer. The new layout takes over the
// checkout cache as it stands — a version's bytes do not depend on its
// layout — so the swap costs the serving path no hits. If commits did land
// mid-solve the attempt is discarded and the whole pipeline re-runs from a
// fresh snapshot, up to ConflictRetries times, after which
// ErrOptimizeConflict is returned.
//
// Optimize calls serialize with each other (a second Optimize waits, it
// does not race the swap) but never with readers. It returns the solution
// chosen (a solve.Result carrying the registry solver name and optimality
// metadata). Canceling ctx aborts the solve with solve.ErrCanceled; the
// served layout is never left half-swapped — shadow blobs already written
// to the content-addressed backend are simply unreferenced.
func (r *Repo) Optimize(ctx context.Context, opts OptimizeOptions) (*solve.Result, error) {
	if err := r.writable(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(string) {}
	}
	retries := opts.ConflictRetries
	if retries == 0 {
		retries = 2
	} else if retries < 0 {
		retries = 0
	}
	r.optMu.Lock()
	defer r.optMu.Unlock()
	// sized holds the pairs this call's attempts have sized but no swap
	// has installed yet: a retry after a lost swap reuses them.
	var sized costs.PairSizes
	for attempt := 0; ; attempt++ {
		res, err := r.optimizeOnce(ctx, opts, progress, &sized)
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, ErrOptimizeConflict) && attempt < retries:
			r.optConflicts.Add(1)
			progress("retry")
			continue
		case errors.Is(err, ErrOptimizeConflict):
			r.optConflicts.Add(1)
			return nil, err
		default:
			return nil, err
		}
	}
}

// OptimizeConflicts returns the cumulative number of copy-on-write swap
// attempts that lost to concurrent commits (whether or not a retry later
// succeeded).
func (r *Repo) OptimizeConflicts() int64 { return r.optConflicts.Load() }

// optimizeOnce runs one snapshot → solve → swap attempt; the caller holds
// optMu. sized carries the pairs earlier attempts of the same call sized;
// this attempt adds its own, and a successful swap installs and logs them.
func (r *Repo) optimizeOnce(ctx context.Context, opts OptimizeOptions, progress func(string), sized *costs.PairSizes) (*solve.Result, error) {
	// Phase 1 — snapshot under a read lock held only long enough to copy
	// the version records and the layout's entry table. Payloads are then
	// materialized off-lock against the snapshot (entries are immutable
	// and blobs content-addressed), bypassing the checkout cache so the
	// bulk scan cannot evict the serving hot set — and so a writer queued
	// behind the RWMutex never convoys new readers behind a long scan.
	progress("snapshot")
	r.mu.RLock()
	n := len(r.meta.Versions)
	if n == 0 {
		r.mu.RUnlock()
		return nil, fmt.Errorf("repo: optimize: %w", ErrEmptyRepo)
	}
	versions := append([]VersionInfo(nil), r.meta.Versions...)
	view := r.layout.Snapshot()
	memo := r.pairs
	r.mu.RUnlock()
	payloads, err := view.CheckoutAll(ctx)
	if err != nil {
		if ctx.Err() != nil {
			return nil, optimizeCanceled(err)
		}
		return nil, err
	}

	// Phase 2 — still off-lock: differencing, solving, and materializing
	// the shadow layout. This is the expensive part, and nothing here
	// touches served state; commits and checkouts proceed freely.
	hops := opts.RevealHops
	if hops <= 0 {
		hops = 5
	}
	progress("diff")
	known := memo.With(*sized)
	m, fresh, err := costMatrix(ctx, versions, payloads, hops, known)
	if err != nil {
		return nil, err
	}
	r.pairsSized.Add(int64(len(fresh)))
	*sized = sized.With(fresh)
	merged := known.With(fresh)
	// Per-tier retrieval pricing: recreation replays bytes out of the
	// backend, so a remote tier multiplies every Φ entry while Δ (bytes
	// at rest) is tier-independent. Solvers then weigh materializing
	// against chaining under the real three-level tradeoff.
	factor := r.retrievalFactor()
	if factor != 1 {
		m.ScaleRecreate(factor)
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		return nil, err
	}
	// The solve phase starts before solveRequest, whose default budget can
	// cost a whole minimum-storage arborescence.
	progress("solve")
	req, info, err := solveRequest(inst, versions, opts, factor)
	if err != nil {
		return nil, err
	}
	// Workload-aware by default: when the solver consumes weights and the
	// caller supplied none, derive them from the access telemetry — sized
	// to this snapshot, so mid-solve commits cannot skew the length.
	if info.Weighted && req.Weights == nil && !opts.NoAutoWeights {
		req.Weights = r.stats.Weights(n)
	}
	res, err := solve.Solve(ctx, inst, req)
	if err != nil {
		return nil, err
	}
	progress("rewrite")
	// The shadow build writes through a recorder that registers every blob
	// address before its Put, protecting in-flight blobs from a concurrent
	// GC (see shadowRecorder); the served layout is then rebuilt over the
	// bare backend so the recorder never sits on the checkout path. The
	// protections drop when this attempt returns — after a successful swap
	// is persisted (defers run last-in-first-out, so release follows the
	// unlock), or on failure, when the blobs become collectible orphans.
	//
	// Versions whose parent, materialized flag and codec are unchanged
	// keep their snapshot entries and are not rewritten. Those blobs need
	// no shadow protection: the served layout references them from the
	// snapshot until the swap, because only Optimize replaces the served
	// layout (commits only append entries) and optMu serializes Optimize.
	shadow := newShadowRecorder(r)
	defer shadow.release()
	built, err := store.BuildLayout(shadow, payloads, res.Tree, opts.Compress, view.Entries)
	if err != nil {
		return nil, err
	}
	newLayout := store.NewLayoutFromEntries(r.backend, built.Entries)

	// Phase 3 — swap under a brief write lock, but only if the snapshot is
	// still current. Version ids are append-only indices, so an unchanged
	// count means an unchanged graph.
	progress("swap")
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.meta.Versions) != n {
		return nil, fmt.Errorf("repo: optimize: %d versions committed during solve: %w",
			len(r.meta.Versions)-n, ErrOptimizeConflict)
	}
	newLayout.SetCache(r.layout.Cache())
	oldLayout, oldPairs := r.layout, r.pairs
	r.layout, r.pairs = newLayout, merged
	if err := r.persistSwap(*sized); err != nil {
		// Keep served state consistent with what was last persisted, as
		// addVersionLocked does: an unpersisted swap must not be published.
		r.layout, r.pairs = oldLayout, oldPairs
		return nil, err
	}
	// Fold the retired layout's I/O counter into the running total so
	// BlobReads stays monotonic across swaps.
	r.retiredBlobReads.Add(oldLayout.BlobReads())
	return res, nil
}

// optimizeCanceled normalizes a context cancellation during Optimize's own
// phases onto the solver sentinel.
func optimizeCanceled(cause error) error {
	return fmt.Errorf("repo: optimize: %w: %w", solve.ErrCanceled, cause)
}

// costMatrix differences all versions within the hop radius of the version
// graph, producing directed one-way delta costs (costs.LineDiffs) under the
// same worker bound as the snapshot; ctx is checked once per pair. Pairs
// in known are not differenced again; the ones that were come back as
// fresh. It operates on a snapshot (versions, payloads) so it
// can run without holding the repository lock.
func costMatrix(ctx context.Context, versions []VersionInfo, payloads [][]byte, hops int, known costs.PairSizes) (*costs.Matrix, costs.PairSizes, error) {
	m, fresh, err := costs.LineDiffs(ctx, payloads, revealPairs(versions, len(payloads), hops), known, store.BulkWorkers())
	if err != nil {
		return nil, nil, optimizeCanceled(err)
	}
	return m, fresh, nil
}

// revealPairs lists, for each source version s, the versions u > s within
// hops undirected edges of the version graph, in breadth-first order.
func revealPairs(versions []VersionInfo, n, hops int) [][]int {
	adj := make([][]int, n)
	for _, v := range versions {
		for _, p := range v.Parents {
			adj[p] = append(adj[p], v.ID)
			adj[v.ID] = append(adj[v.ID], p)
		}
	}
	pairs := make([][]int, n)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	var queue []int
	for s := 0; s < n; s++ {
		queue = append(queue[:0], s)
		dist[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == hops {
				continue
			}
			for _, u := range adj[v] {
				if dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
					if s < u {
						pairs[s] = append(pairs[s], u)
					}
				}
			}
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return pairs
}
