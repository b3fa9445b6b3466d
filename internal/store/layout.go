package store

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"versiondb/internal/delta"
	"versiondb/internal/graph"
)

// Entry describes how one version is physically stored.
type Entry struct {
	Materialized bool `json:"materialized"`
	Parent       int  `json:"parent"` // version index of the delta base; -1 when materialized
	Blob         ID   `json:"blob"`   // full payload or encoded delta
	Compressed   bool `json:"compressed"`
	StoredBytes  int  `json:"stored_bytes"`
}

// Layout places n version payloads into a backend according to a storage
// tree over the augmented graph (vertex 0 = dummy root, vertex i+1 =
// version i). An optional VersionCache short-circuits checkouts: the delta
// chain is replayed only below the nearest cached ancestor. Concurrent
// cold checkouts of the same version coalesce onto a single chain
// materialization (singleflight), so a thundering herd pays one replay.
//
// Concurrent checkouts are safe as long as Entries is not being mutated
// at the same time; the repository layer serializes mutation behind its
// write lock.
type Layout struct {
	backend   Backend
	cache     *VersionCache
	deltas    atomic.Int64 // cumulative delta applications
	blobReads atomic.Int64 // cumulative backend blob fetches (serving path)

	// flight coalesces concurrent cold checkouts of the same version: the
	// first caller materializes, the rest wait for its result.
	flightMu sync.Mutex
	flight   map[int]*flightCall

	// neg remembers failed materializations for DefaultNegativeTTL so a
	// retry storm against a struggling backend is answered from memory.
	// negTTL, when non-zero, replaces that window; only tests set it.
	// Lock order: flightMu before negMu.
	negMu  sync.Mutex
	neg    map[int]negEntry
	negTTL time.Duration

	// memo caches the per-version cold-cost DP (ChainCosts).
	// Entries are append-only and immutable, so a memo covering a prefix
	// of Entries stays valid forever; a length mismatch means "extend".
	memo atomic.Pointer[chainMemo]

	Entries []Entry `json:"entries"`
}

// flightCall is one in-flight chain materialization; done is closed when
// payload/err are set.
type flightCall struct {
	done    chan struct{}
	payload []byte
	err     error
}

// negEntry is one remembered materialization failure.
type negEntry struct {
	err   error
	until time.Time
}

// DefaultNegativeTTL is how long a failed materialization is remembered:
// long enough to absorb a retry storm, short enough that a healed backend
// is retried promptly.
const DefaultNegativeTTL = time.Second

// negFailure returns the remembered error for v when a materialization
// failed within the TTL window; expired entries are dropped on probe.
func (l *Layout) negFailure(v int) error {
	l.negMu.Lock()
	defer l.negMu.Unlock()
	e, ok := l.neg[v]
	if !ok {
		return nil
	}
	if time.Now().After(e.until) {
		delete(l.neg, v)
		return nil
	}
	return e.err
}

// noteFailure remembers a materialization failure for the TTL window.
func (l *Layout) noteFailure(v int, err error) {
	ttl := l.negTTL
	if ttl == 0 {
		ttl = DefaultNegativeTTL
	}
	l.negMu.Lock()
	if l.neg == nil {
		l.neg = map[int]negEntry{}
	}
	l.neg[v] = negEntry{err: err, until: time.Now().Add(ttl)}
	l.negMu.Unlock()
}

// clearFailure forgets a remembered failure after a success.
func (l *Layout) clearFailure(v int) {
	l.negMu.Lock()
	delete(l.neg, v)
	l.negMu.Unlock()
}

// BuildLayout writes every version into the backend per the tree: children
// of the root are stored whole; every other version is stored as the
// one-way line delta from its tree parent. With compress=true both
// payloads and deltas are flate-compressed, shrinking Δ while leaving
// apply work Φ untouched — the paper's compressed-delta regime.
//
// reuse holds entries already written for the same versions (nil means
// none). A version whose tree parent, materialized flag and codec match
// its reuse entry keeps that entry as is: it is neither diffed, encoded
// nor written again. Since the encoding is deterministic and blobs are
// content-addressed, the result equals a build without reuse, blob ids
// included. Reused blobs are not written, so the caller must keep them
// from being collected until the new layout is served.
func BuildLayout(b Backend, payloads [][]byte, tree *graph.Tree, compress bool, reuse []Entry) (*Layout, error) {
	n := len(payloads)
	if tree.N() != n+1 {
		return nil, fmt.Errorf("store: tree spans %d vertices, want %d (versions+root)", tree.N(), n+1)
	}
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("store: layout tree: %w", err)
	}
	l := &Layout{backend: b, Entries: make([]Entry, n)}
	for _, vtx := range tree.TopoOrder() {
		if vtx == tree.Root {
			continue
		}
		v := vtx - 1
		parentVtx := tree.Parent[vtx]
		e := Entry{Parent: parentVtx - 1, Materialized: parentVtx == tree.Root}
		if e.Materialized {
			e.Parent = -1
		}
		if v < len(reuse) && reuse[v].Parent == e.Parent && reuse[v].Materialized == e.Materialized && reuse[v].Compressed == compress {
			l.Entries[v] = reuse[v]
			continue
		}
		blob := payloads[v]
		if !e.Materialized {
			if !delta.LineExact(payloads[v]) {
				return nil, fmt.Errorf("store: version %d does not end in a newline; a line delta cannot rebuild it", v)
			}
			d := delta.DiffLines(payloads[e.Parent], payloads[v])
			blob = delta.Encode(d, true)
		}
		if compress {
			blob = delta.Compress(blob)
			e.Compressed = true
		}
		id, err := b.Put(blob)
		if err != nil {
			return nil, err
		}
		e.Blob = id
		e.StoredBytes = len(blob)
		l.Entries[v] = e
	}
	return l, nil
}

// Backend returns the blob store the layout reads from and writes to.
func (l *Layout) Backend() Backend { return l.backend }

// SetCache installs (or, with nil, removes) the materialized-version LRU
// consulted by Checkout. A repository hands its one cache on from each
// layout it retires to the next.
func (l *Layout) SetCache(c *VersionCache) { l.cache = c }

// Cache returns the installed cache, nil when disabled.
func (l *Layout) Cache() *VersionCache { return l.cache }

// DeltaApplications returns the cumulative number of deltas this layout
// has applied across all checkouts — the observable share of Φ actually
// paid. A fully cache-served or coalesced checkout adds zero.
func (l *Layout) DeltaApplications() int64 { return l.deltas.Load() }

// BlobReads returns the cumulative number of blobs this layout has fetched
// from the backend on the serving path — the physical I/O behind cold
// checkouts. Cache hits and coalesced waiters add zero.
func (l *Layout) BlobReads() int64 { return l.blobReads.Load() }

// Checkout reconstructs version v by walking its delta chain down from the
// nearest materialized ancestor — or the nearest cached one, whichever
// comes first. Concurrent checkouts of the same cold version coalesce onto
// one materialization. Only v itself is admitted to the cache — the one
// admission rule the streaming path and the commit path share — so a deep
// cold chain never displaces the hot set with nodes nobody asked for.
// Callers must treat the returned slice as read-only.
func (l *Layout) Checkout(v int) ([]byte, error) {
	if v < 0 || v >= len(l.Entries) {
		return nil, fmt.Errorf("store: checkout version %d out of range [0,%d)", v, len(l.Entries))
	}
	// Fast path: exact cache hit, no coordination at all.
	if p, ok := l.cache.Get(v); ok {
		return p, nil
	}
	return l.checkoutCold(v)
}

// checkoutCold coalesces concurrent materializations of v: the first
// caller replays the chain, later callers block on its flightCall and
// share the result (and its error, if any — a transient backend fault is
// reported to the whole herd rather than retried N times concurrently).
func (l *Layout) checkoutCold(v int) ([]byte, error) {
	l.flightMu.Lock()
	if fl, ok := l.flight[v]; ok {
		l.flightMu.Unlock()
		<-fl.done
		return fl.payload, fl.err
	}
	// Failure memory: a materialization of v that failed within the TTL is
	// answered from memory instead of sending a retry storm at a backend
	// that is already struggling. Checked under flightMu so a remembered
	// failure never races a flight being created for the same version.
	if err := l.negFailure(v); err != nil {
		l.flightMu.Unlock()
		return nil, err
	}
	fl := &flightCall{done: make(chan struct{})}
	if l.flight == nil {
		l.flight = map[int]*flightCall{}
	}
	l.flight[v] = fl
	l.flightMu.Unlock()

	// Deferred cleanup so a panic below (e.g. in a third-party backend)
	// cannot leave a stale flight entry wedging every future checkout of
	// v and hanging the waiters already blocked on done.
	defer func() {
		l.flightMu.Lock()
		delete(l.flight, v)
		l.flightMu.Unlock()
		close(fl.done)
	}()
	fl.payload, fl.err = l.materialize(v)
	if fl.err != nil {
		l.noteFailure(v, fl.err)
	} else {
		l.clearFailure(v)
	}
	return fl.payload, fl.err
}

// materialize replays v's delta chain from the nearest cached or
// materialized ancestor and admits v, the version asked for, to the cache.
func (l *Layout) materialize(v int) ([]byte, error) {
	chain, cur, _, err := l.chainTo(v, l.cache)
	if err != nil {
		return nil, err
	}
	if len(chain) == 0 {
		return cur, nil // v itself is cached: nothing to replay or admit
	}
	for i := len(chain) - 1; i >= 0; i-- {
		u := chain[i]
		blob, err := l.blob(u)
		if err != nil {
			return nil, err
		}
		l.blobReads.Add(1)
		if l.Entries[u].Materialized {
			cur = blob
		} else {
			cur, err = delta.ApplyEncoded(blob, cur)
			if err != nil {
				return nil, fmt.Errorf("store: checkout %d: applying delta for %d: %w", v, u, err)
			}
			l.deltas.Add(1)
		}
	}
	l.cache.Put(v, cur)
	return cur, nil
}

// chainTo walks v up to its replay base: the nearest ancestor resident in
// c or, failing that, the materialized root. It is the one serving-path
// chain walk. chain lists the versions whose blobs are replayed, v first.
// When found, base is the cached payload the replay starts from (chain is
// empty when v itself is cached); otherwise chain ends at the materialized
// root, whose blob is the base. A nil c walks straight to the root.
//
// Every probe here is uncounted, so the cache's hits and misses stay one
// per checkout: the checkout's own lookup of v has already recorded its
// miss, and counting each ancestor probed as well would make the hit
// ratio operators tune the byte budget against a per-ancestor figure.
// A found ancestor is still promoted, since the replay leans on it. (The
// re-probe of v still matters: a leader racing a just-finished flight
// finds the freshly admitted payload here.) Corrupt chains — cycles and
// out-of-range parents — are errors rather than endless walks.
func (l *Layout) chainTo(v int, c *VersionCache) (chain []int, base []byte, found bool, err error) {
	for u := v; ; u = l.Entries[u].Parent {
		if base, found = c.lookup(u, false, true); found {
			return chain, base, true, nil
		}
		chain = append(chain, u)
		if l.Entries[u].Materialized {
			return chain, nil, false, nil
		}
		if len(chain) > len(l.Entries) {
			return nil, nil, false, fmt.Errorf("store: delta chain cycle at version %d", v)
		}
		if p := l.Entries[u].Parent; p < 0 || p >= len(l.Entries) {
			return nil, nil, false, fmt.Errorf("store: version %d: version %d chains to %d out of range", v, u, p)
		}
	}
}

// Snapshot returns a cache-free view over the layout's current entries,
// sharing the backend and the (immutable, content-addressed) blobs. The
// entry slice is capacity-capped, so appends to the live layout never leak
// into the view: readers of the snapshot are isolated from concurrent
// commits. Optimize materializes its payloads against a snapshot so the
// bulk scan runs without any repository lock and without evicting the
// serving cache's hot set.
func (l *Layout) Snapshot() *Layout {
	n := len(l.Entries)
	return &Layout{backend: l.backend, Entries: l.Entries[:n:n]}
}

// BulkWorkers bounds the worker pools of Optimize's bulk phases — the
// CheckoutAll snapshot and the pairwise differencing — at
// min(GOMAXPROCS, 8): enough to keep the backend and the cores busy, few
// enough not to monopolize the host during a background optimize.
func BulkWorkers() int {
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	if w < 1 {
		w = 1
	}
	return w
}

// CheckoutAll materializes every version once, walking the storage forest
// top-down with a bounded worker pool: materialized versions are roots,
// and a version becomes ready the moment its parent's payload exists, so
// independent subtrees materialize in parallel and each delta is applied
// exactly once (O(total entries) work, versus O(n × chain) for n
// independent Checkouts). It bypasses the cache entirely and does not
// count toward DeltaApplications or BlobReads — it is bulk-scan machinery
// (Optimize snapshots), not serving-path work. Cancellation returns
// ctx.Err(); corrupt parent chains (cycles, out-of-range parents) are
// reported as errors rather than hanging the scan.
func (l *Layout) CheckoutAll(ctx context.Context) ([][]byte, error) {
	n := len(l.Entries)
	out := make([][]byte, n)
	if n == 0 {
		return out, nil
	}
	// children[p] lists the delta entries based on p; roots are the
	// materialized versions. The cold-cost DP marks every corrupt chain
	// (cycle or out-of-range parent) -1, so once it is clean every version
	// is reachable from a root and the walk below always completes.
	hops := l.chainCosts().hops
	children := make([][]int, n)
	var roots []int
	for v := 0; v < n; v++ {
		switch {
		case hops[v] < 0:
			return nil, fmt.Errorf("store: checkout-all: version %d has a corrupt delta chain (cycle or out-of-range parent)", v)
		case l.Entries[v].Materialized:
			roots = append(roots, v)
		default:
			children[l.Entries[v].Parent] = append(children[l.Entries[v].Parent], v)
		}
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ready := make(chan int, n) // every version is enqueued at most once
	var remaining atomic.Int64
	remaining.Store(int64(n))
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		e := err
		if firstErr.CompareAndSwap(nil, &e) {
			cancel()
		}
	}
	for _, r := range roots {
		ready <- r
	}
	var wg sync.WaitGroup
	for w := BulkWorkers(); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case v, ok := <-ready:
					if !ok {
						return
					}
					blob, err := l.blob(v)
					if err != nil {
						fail(err)
						return
					}
					if l.Entries[v].Materialized {
						out[v] = blob
					} else {
						// The parent's payload is complete: v was enqueued
						// by the worker that finished it.
						cur, err := delta.ApplyEncoded(blob, out[l.Entries[v].Parent])
						if err != nil {
							fail(fmt.Errorf("store: checkout-all %d: applying delta: %w", v, err))
							return
						}
						out[v] = cur
					}
					for _, c := range children[v] {
						ready <- c
					}
					if remaining.Add(-1) == 0 {
						close(ready)
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && firstErr.Load() == nil {
		return nil, err
	}
	if errp := firstErr.Load(); errp != nil {
		return nil, *errp
	}
	return out, nil
}

// blob fetches and decodes v's stored blob. It counts nothing: serving
// callers add to BlobReads themselves, bulk scans do not.
func (l *Layout) blob(v int) ([]byte, error) {
	blob, err := l.backend.Get(l.Entries[v].Blob)
	if err != nil {
		return nil, err
	}
	if l.Entries[v].Compressed {
		if blob, err = delta.Decompress(blob); err != nil {
			return nil, fmt.Errorf("store: version %d: %w", v, err)
		}
	}
	return blob, nil
}

// chainMemo holds the cold-cost DP over a prefix of Entries: work[v] is
// the stored bytes read and applied by a cold checkout of v (work[v] =
// work[parent] + storedBytes[v]), hops[v] the deltas applied. Corrupt
// chains (cycles, out-of-range parents) carry -1. The struct is immutable
// once published.
type chainMemo struct {
	work []int64
	hops []int
}

// chainCosts returns the memoized DP, extending it when commits have
// appended entries since it was built. Entries are append-only and
// immutable, so a memo for a prefix never goes stale; racing extensions
// compute identical results and the last Store wins.
func (l *Layout) chainCosts() *chainMemo {
	n := len(l.Entries)
	m := l.memo.Load()
	if m != nil && len(m.work) == n {
		return m
	}
	fresh := &chainMemo{work: make([]int64, n), hops: make([]int, n)}
	covered := 0
	if m != nil && len(m.work) < n {
		covered = copy(fresh.work, m.work)
		copy(fresh.hops, m.hops)
	}
	// state: 0 = unresolved, 1 = on the current walk, 2 = resolved.
	state := make([]uint8, n)
	for v := 0; v < covered; v++ {
		state[v] = 2
	}
	stack := make([]int, 0, 16)
	for v := covered; v < n; v++ {
		if state[v] == 2 {
			continue
		}
		// Walk up until a resolved node, a materialized root, or a node
		// already on this walk (a cycle); then fold costs back down.
		stack = stack[:0]
		u := v
		bad := false
		for {
			if u < 0 || u >= n || state[u] == 1 {
				bad = true // out-of-range parent or cycle
				break
			}
			if state[u] == 2 {
				bad = fresh.work[u] < 0
				break
			}
			state[u] = 1
			stack = append(stack, u)
			if l.Entries[u].Materialized {
				// Base of the chain: resolve it directly.
				fresh.work[u] = int64(l.Entries[u].StoredBytes)
				fresh.hops[u] = 0
				state[u] = 2
				stack = stack[:len(stack)-1]
				bad = false
				break
			}
			u = l.Entries[u].Parent
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			if bad {
				fresh.work[w], fresh.hops[w] = -1, -1
			} else {
				p := l.Entries[w].Parent
				fresh.work[w] = fresh.work[p] + int64(l.Entries[w].StoredBytes)
				fresh.hops[w] = fresh.hops[p] + 1
			}
			state[w] = 2
		}
	}
	l.memo.Store(fresh)
	return fresh
}

// ChainCosts returns the memoized per-version cold checkout work (stored
// bytes) and chain lengths (deltas applied) for every version, in one
// O(n) pass. Corrupt chains carry -1. Callers must not mutate the
// returned slices.
func (l *Layout) ChainCosts() (work []int64, hops []int) {
	m := l.chainCosts()
	return m.work, m.hops
}

// ChainRoot resolves v to the materialized version anchoring its delta
// chain. Every version on one chain shares a root, which makes the root a
// natural affinity key: route all of a chain's versions to one replica and
// that replica's cache holds the whole chain prefix instead of every
// replica paying for a partial copy. A corrupt chain (cycle or
// out-of-range parent) is an error rather than an infinite walk.
func (l *Layout) ChainRoot(v int) (int, error) {
	if v < 0 || v >= len(l.Entries) {
		return 0, fmt.Errorf("store: chain root: version %d out of range [0,%d)", v, len(l.Entries))
	}
	chain, _, _, err := l.chainTo(v, nil)
	if err != nil {
		return 0, err
	}
	return chain[len(chain)-1], nil
}

// StoredBytes sums the physical footprint of all entries.
func (l *Layout) StoredBytes() int64 {
	var total int64
	for _, e := range l.Entries {
		total += int64(e.StoredBytes)
	}
	return total
}

// NumMaterialized counts fully stored versions.
func (l *Layout) NumMaterialized() int {
	n := 0
	for _, e := range l.Entries {
		if e.Materialized {
			n++
		}
	}
	return n
}

// NewLayoutFromEntries builds a layout over b serving the given entry
// table without touching a single blob: the constructor behind
// metadata-log replay (where entries come from commit and swap records)
// and behind Optimize's shadow-build handoff (where blobs were already
// written through a recording wrapper).
func NewLayoutFromEntries(b Backend, entries []Entry) *Layout {
	return &Layout{backend: b, Entries: entries}
}
