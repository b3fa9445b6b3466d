// Metadata-log persistence: the repository's durable form, on the
// backend's append-only logs (store.LogStore). Every state change
// — a commit, a branch, an Optimize layout swap, an access-telemetry
// flush, a job lifecycle event — is one typed record
// appended to a metalog.Log. Startup replays the last compaction snapshot
// plus the record tail; a torn final record (power cut mid-append) is
// truncated away by the log layer, so the repository always reopens onto
// a whole-record prefix of its history.
package repo

import (
	"cmp"
	"encoding/json"
	"fmt"

	"versiondb/internal/costs"
	"versiondb/internal/store"
	"versiondb/internal/store/metalog"
)

// walName is the metadata log's device/snapshot name pair
// ("metalog.wal" on a filesystem backend, "metalog_snapshot.json" among
// the metadata documents).
const walName = "metalog"

// DefaultCompactEvery is how many tail records may accumulate before the
// commit path folds them into a fresh snapshot.
const DefaultCompactEvery = 1024

// Record types. Values are part of the on-disk format — never renumber.
const (
	recCommit       metalog.Type = 1 // commitRecord: one new version + its layout entry
	recBranch       metalog.Type = 2 // branchRecord: a new branch head
	recLayoutSwap   metalog.Type = 3 // layoutSwapRecord: Optimize replaced the entry table
	recAccess       metalog.Type = 4 // sparse access-telemetry delta (store.AccessStats)
	_               metalog.Type = 5 // reserved: a retired hash-backfill record; never reuse
	recJobSubmitted metalog.Type = 6 // jobRecord: a durable job was accepted
	recJobStarted   metalog.Type = 7 // jobRecord (Spec empty): the job began running
	recJobFinished  metalog.Type = 8 // jobRecord (Spec empty): the job reached a terminal state
)

// commitRecord is one committed version with its physical placement.
type commitRecord struct {
	Version VersionInfo `json:"version"`
	Entry   store.Entry `json:"entry"`
}

// branchRecord is one branch creation.
type branchRecord struct {
	Name string `json:"name"`
	From int    `json:"from"`
}

// layoutSwapRecord is a whole-table replacement from an Optimize swap:
// O(versions) once per re-layout, which already rewrote every blob. Pairs
// are the version pairs that Optimize sized and added to the pair-size
// memo; logs written before the memo existed have none.
type layoutSwapRecord struct {
	Entries []store.Entry `json:"entries"`
	Pairs   pairRows      `json:"pairs,omitempty"`
}

// pairRows is a costs.PairSizes in its log form: one [s, u, fwd, bwd] row
// per pair, in ascending (s, u) order.
type pairRows [][4]int

// rowsOf converts a memo (or a part of one) to its log form.
func rowsOf(p costs.PairSizes) pairRows {
	rows := make(pairRows, len(p))
	for i, e := range p {
		rows[i] = [4]int{int(e.S), int(e.U), e.Fwd, e.Bwd}
	}
	return rows
}

// memo converts rows back to a memo, rejecting rows out of order or naming
// a pair that is not (s, u) with 0 ≤ s < u < n: a record naming a version
// it does not follow is corrupt.
func (rows pairRows) memo(n int) (costs.PairSizes, error) {
	p := make(costs.PairSizes, len(rows))
	for i, row := range rows {
		if row[0] < 0 || row[0] >= row[1] || row[1] >= n {
			return nil, fmt.Errorf("pair (%d,%d) outside %d versions", row[0], row[1], n)
		}
		if i > 0 && cmp.Or(cmp.Compare(rows[i-1][0], row[0]), cmp.Compare(rows[i-1][1], row[1])) >= 0 {
			return nil, fmt.Errorf("pair (%d,%d) out of order", row[0], row[1])
		}
		p[i] = costs.PairSize{S: int32(row[0]), U: int32(row[1]), Fwd: row[2], Bwd: row[3]}
	}
	return p, nil
}

// jobRecord tracks a durable background job through its lifecycle.
type jobRecord struct {
	ID   string `json:"id"`
	Spec string `json:"spec,omitempty"`
}

// snapshotState is the full repository state a compaction captures: replay
// starts here and applies only records newer than the snapshot.
type snapshotState struct {
	Meta    meta            `json:"meta"`
	Entries []store.Entry   `json:"entries"`
	Access  json.RawMessage `json:"access,omitempty"`
	Jobs    []jobRecord     `json:"jobs,omitempty"`    // outstanding, submission order
	Running []string        `json:"running,omitempty"` // subset of Jobs that had started
	Pairs   pairRows        `json:"pairs,omitempty"`   // the whole pair-size memo
}

// RecoveredJob is a durable job the previous process left unfinished, as
// reported by RecoveredJobs after a restart.
type RecoveredJob struct {
	// ID is the job's original id; resubmitting under it keeps pre-restart
	// clients' polls working.
	ID string
	// Spec is the opaque submission spec (the HTTP server's optimize
	// request JSON).
	Spec string
	// WasRunning distinguishes a job that had started (its effects are
	// unknown — surface as failed, retry fresh) from one still queued
	// (re-enqueue as if nothing happened).
	WasRunning bool
}

// appendJSON marshals v and appends it as one record of type t.
func (r *Repo) appendJSON(t metalog.Type, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("repo: log record: %w", err)
	}
	return r.log.Append(t, data)
}

// accessSink routes access-telemetry flushes into the log. Installed on
// the repository's AccessStats; called under the stats flushMu, which
// ranks below the log mutex.
func (r *Repo) accessSink(delta []byte) error {
	return r.log.Append(recAccess, delta)
}

// persistCommit durably records one new version; callers hold the write
// lock. This is one O(record) append plus a best-effort telemetry flush
// (folded into the log, so an unclean shutdown no longer drops the final
// decay window) and a compaction check.
func (r *Repo) persistCommit(v VersionInfo, e store.Entry) error {
	if err := r.appendJSON(recCommit, commitRecord{Version: v, Entry: e}); err != nil {
		return err
	}
	_ = r.stats.Flush()
	r.maybeCompact()
	return nil
}

// persistBranch durably records a branch creation; callers hold the write
// lock.
func (r *Repo) persistBranch(name string, from int) error {
	if err := r.appendJSON(recBranch, branchRecord{Name: name, From: from}); err != nil {
		return err
	}
	r.maybeCompact()
	return nil
}

// persistSwap durably records an Optimize layout swap with the pairs it
// added to the memo; callers hold the write lock with r.layout and r.pairs
// already installed.
func (r *Repo) persistSwap(added costs.PairSizes) error {
	entries := append([]store.Entry(nil), r.layout.Entries...)
	if err := r.appendJSON(recLayoutSwap, layoutSwapRecord{Entries: entries, Pairs: rowsOf(added)}); err != nil {
		return err
	}
	r.maybeCompact()
	return nil
}

// maybeCompact folds the record tail into a fresh snapshot once it has
// grown past the threshold; callers hold the write lock. Best-effort: a
// failed compaction leaves a longer tail for the next try, never a broken
// repository (the snapshot write is atomic and replay skips by sequence).
func (r *Repo) maybeCompact() {
	if r.log.TailRecords() >= DefaultCompactEvery {
		_ = r.compact()
	}
}

// compact captures the full current state as the log's new snapshot;
// callers hold the write lock (or have exclusive access during
// construction).
func (r *Repo) compact() error {
	st := snapshotState{
		Meta:    r.meta,
		Entries: r.layout.Entries,
		Pairs:   rowsOf(r.pairs),
	}
	if doc, err := r.stats.MarshalDoc(); err == nil {
		st.Access = doc
	}
	r.jobMu.Lock()
	for _, id := range r.jobsOrder {
		st.Jobs = append(st.Jobs, jobRecord{ID: id, Spec: r.jobsOutstanding[id]})
		if r.jobsRunning[id] {
			st.Running = append(st.Running, id)
		}
	}
	r.jobMu.Unlock()
	data, err := json.Marshal(&st)
	if err != nil {
		return fmt.Errorf("repo: snapshot: %w", err)
	}
	return r.log.Compact(data)
}

// restore rebuilds the repository's in-memory state from a metadata-log
// recovery: reset to the snapshot, then apply the record tail in order.
// The same two primitives serve a replica's incremental replay
// (ApplySnapshot / ApplyRecords), so recovery and replication can never
// disagree about what a record means.
func (r *Repo) restore(rec *metalog.Recovery) error {
	if err := r.resetToSnapshot(rec.Snapshot); err != nil {
		return err
	}
	for _, record := range rec.Records {
		if err := r.applyRecord(record); err != nil {
			return err
		}
	}
	r.stats.SetSink(r.accessSink)
	return nil
}

// resetToSnapshot replaces the repository's whole in-memory state with a
// compaction snapshot (nil means empty). Callers hold the write lock or
// have exclusive access during construction. It is the one place the
// checkout cache is emptied, in place: the snapshot may come from another
// history, whose version ids name other bytes (at open there is no cache
// yet). The retired layout's blob reads fold into the running total so
// BlobReads stays monotonic.
func (r *Repo) resetToSnapshot(snap []byte) error {
	st := snapshotState{}
	if snap != nil {
		if err := json.Unmarshal(snap, &st); err != nil {
			return fmt.Errorf("repo: restore: snapshot: %w", err)
		}
	}
	if len(st.Entries) != len(st.Meta.Versions) {
		return fmt.Errorf("repo: restore: %d layout entries for %d versions", len(st.Entries), len(st.Meta.Versions))
	}
	for _, v := range st.Meta.Versions {
		if v.Hash == "" {
			return fmt.Errorf("repo: restore: snapshot: version %d has no payload hash", v.ID)
		}
	}
	if st.Meta.Branches == nil {
		st.Meta.Branches = map[string]int{}
	}
	pairs, err := st.Pairs.memo(len(st.Meta.Versions))
	if err != nil {
		return fmt.Errorf("repo: restore: snapshot: %w", err)
	}
	r.meta = st.Meta
	r.pairs = pairs
	r.stats = store.LoadAccessStatsData(st.Access)
	r.jobMu.Lock()
	r.jobsOutstanding = map[string]string{}
	r.jobsOrder = nil
	r.jobsRunning = map[string]bool{}
	for _, j := range st.Jobs {
		r.jobsOutstanding[j.ID] = j.Spec
		r.jobsOrder = append(r.jobsOrder, j.ID)
	}
	for _, id := range st.Running {
		r.jobsRunning[id] = true
	}
	r.jobMu.Unlock()
	if r.layout != nil {
		r.layout.Cache().Clear()
	}
	r.installLayout(store.NewLayoutFromEntries(r.backend, st.Entries))
	return nil
}

// installLayout swaps the served layout pointer, handing the checkout
// cache on and folding the retired layout's I/O counter. Callers hold the
// write lock or have exclusive access.
func (r *Repo) installLayout(l *store.Layout) {
	if old := r.layout; old != nil {
		l.SetCache(old.Cache())
		r.retiredBlobReads.Add(old.BlobReads())
	}
	r.layout = l
}

// applyRecord folds one metadata-log record into the live state — the
// single definition of what each record type means, shared by startup
// recovery and replica replay. Callers hold the write lock or have
// exclusive access. Unknown record types are skipped (forward
// compatibility); records that contradict the accumulated state mark real
// corruption and fail the replay.
func (r *Repo) applyRecord(record metalog.Record) error {
	switch record.Type {
	case recCommit:
		var cr commitRecord
		if err := json.Unmarshal(record.Data, &cr); err != nil {
			return fmt.Errorf("repo: restore: commit record seq %d: %w", record.Seq, err)
		}
		if cr.Version.ID != len(r.meta.Versions) {
			return fmt.Errorf("repo: restore: commit record seq %d: version %d after %d versions",
				record.Seq, cr.Version.ID, len(r.meta.Versions))
		}
		if cr.Version.Hash == "" {
			return fmt.Errorf("repo: restore: commit record seq %d: version %d has no payload hash", record.Seq, cr.Version.ID)
		}
		r.meta.Versions = append(r.meta.Versions, cr.Version)
		r.meta.Branches[cr.Version.Branch] = cr.Version.ID
		r.layout.Entries = append(r.layout.Entries, cr.Entry)
	case recBranch:
		var br branchRecord
		if err := json.Unmarshal(record.Data, &br); err != nil {
			return fmt.Errorf("repo: restore: branch record seq %d: %w", record.Seq, err)
		}
		r.meta.Branches[br.Name] = br.From
	case recLayoutSwap:
		var sr layoutSwapRecord
		if err := json.Unmarshal(record.Data, &sr); err != nil {
			return fmt.Errorf("repo: restore: swap record seq %d: %w", record.Seq, err)
		}
		if len(sr.Entries) != len(r.meta.Versions) {
			return fmt.Errorf("repo: restore: swap record seq %d: %d entries for %d versions",
				record.Seq, len(sr.Entries), len(r.meta.Versions))
		}
		added, err := sr.Pairs.memo(len(r.meta.Versions))
		if err != nil {
			return fmt.Errorf("repo: restore: swap record seq %d: %w", record.Seq, err)
		}
		r.installLayout(store.NewLayoutFromEntries(r.backend, sr.Entries))
		r.pairs = r.pairs.With(added)
	case recAccess:
		r.stats.ApplyDelta(record.Data)
	case recJobSubmitted:
		var jr jobRecord
		if err := json.Unmarshal(record.Data, &jr); err != nil {
			return fmt.Errorf("repo: restore: job record seq %d: %w", record.Seq, err)
		}
		r.jobMu.Lock()
		if _, ok := r.jobsOutstanding[jr.ID]; !ok {
			r.jobsOrder = append(r.jobsOrder, jr.ID)
		}
		r.jobsOutstanding[jr.ID] = jr.Spec
		r.jobMu.Unlock()
	case recJobStarted:
		var jr jobRecord
		if err := json.Unmarshal(record.Data, &jr); err != nil {
			return fmt.Errorf("repo: restore: job record seq %d: %w", record.Seq, err)
		}
		r.jobMu.Lock()
		r.jobsRunning[jr.ID] = true
		r.jobMu.Unlock()
	case recJobFinished:
		var jr jobRecord
		if err := json.Unmarshal(record.Data, &jr); err != nil {
			return fmt.Errorf("repo: restore: job record seq %d: %w", record.Seq, err)
		}
		r.jobMu.Lock()
		r.dropJob(jr.ID)
		r.jobMu.Unlock()
	default:
		// Newer record type than this binary knows: skip, don't fail —
		// the log is append-only and forward-compatible by design.
	}
	return nil
}

// dropJob removes a job from the outstanding set; callers hold jobMu or
// have exclusive access during restore.
func (r *Repo) dropJob(id string) {
	if _, ok := r.jobsOutstanding[id]; !ok {
		delete(r.jobsRunning, id)
		return
	}
	delete(r.jobsOutstanding, id)
	delete(r.jobsRunning, id)
	order := r.jobsOrder[:0]
	for _, j := range r.jobsOrder {
		if j != id {
			order = append(order, j)
		}
	}
	r.jobsOrder = order
}

// JobSubmitted implements the job journal (jobs.Journal): a durable job
// was accepted. Called by the job manager outside all repository locks.
func (r *Repo) JobSubmitted(id, spec string) error {
	r.jobMu.Lock()
	if _, ok := r.jobsOutstanding[id]; !ok {
		r.jobsOrder = append(r.jobsOrder, id)
	}
	r.jobsOutstanding[id] = spec
	r.jobMu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.appendJSON(recJobSubmitted, jobRecord{ID: id, Spec: spec})
}

// JobStarted implements the job journal: the job began running, so its
// effects are no longer replay-safe — a crash from here surfaces it as
// failed rather than silently re-running it.
func (r *Repo) JobStarted(id string) error {
	r.jobMu.Lock()
	r.jobsRunning[id] = true
	r.jobMu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.appendJSON(recJobStarted, jobRecord{ID: id})
}

// JobFinished implements the job journal: the job reached a terminal
// state and needs nothing from a future recovery.
func (r *Repo) JobFinished(id string) error {
	r.jobMu.Lock()
	r.dropJob(id)
	r.jobMu.Unlock()
	if r.log == nil {
		return nil
	}
	return r.appendJSON(recJobFinished, jobRecord{ID: id})
}

// RecoveredJobs returns the durable jobs the previous process left
// unfinished, in submission order — the server resubmits queued ones under
// their original ids and surfaces started ones as failed-with-retry. Jobs
// submitted by the current process are excluded: they are alive in the job
// manager, not recovered.
func (r *Repo) RecoveredJobs() []RecoveredJob {
	r.jobMu.Lock()
	defer r.jobMu.Unlock()
	out := make([]RecoveredJob, 0, len(r.recoveredOrder))
	for _, id := range r.recoveredOrder {
		spec, ok := r.jobsOutstanding[id]
		if !ok {
			continue // finished between restore and this call
		}
		out = append(out, RecoveredJob{ID: id, Spec: spec, WasRunning: r.jobsRunning[id]})
	}
	return out
}

// GCResult summarizes one mark-and-sweep pass.
type GCResult struct {
	// Scanned is how many blobs the backend listed.
	Scanned int `json:"scanned"`
	// Live is how many were referenced by the current layout or protected
	// as a concurrent Optimize's shadow writes.
	Live int `json:"live"`
	// Collected is how many orphans were deleted.
	Collected int `json:"collected"`
}

// GC deletes orphaned blobs: content-addressed blobs no layout entry
// references — the debris of failed commits, discarded Optimize attempts,
// and compacted-away layout generations. The mark set is the current
// entry table, read under the read lock, which is held across the sweep so
// no commit can add a reference mid-pass (commits take the write lock);
// checkouts proceed throughout, since only non-referenced blobs are
// touched. Blobs a concurrent Optimize has shadow-written (registered
// before their Put, see shadowRecorder) are skipped; the per-blob check
// and delete share the shadow mutex, so a blob can never be deleted after
// Optimize observed it as already present.
//
// Call GC only when no checkout stream opened before the last Optimize is
// still draining: a retired layout's chain blobs look like orphans.
func (r *Repo) GC() (GCResult, error) {
	if err := r.writable(); err != nil {
		return GCResult{}, err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	live := make(map[store.ID]bool, len(r.layout.Entries))
	for _, e := range r.layout.Entries {
		live[e.Blob] = true
	}
	ids, err := r.backend.List()
	if err != nil {
		return GCResult{}, fmt.Errorf("repo: gc: %w", err)
	}
	res := GCResult{Scanned: len(ids)}
	for _, id := range ids {
		if live[id] {
			res.Live++
			continue
		}
		r.shadowMu.Lock()
		if r.shadow[id] > 0 {
			r.shadowMu.Unlock()
			res.Live++
			continue
		}
		err := r.backend.Delete(id)
		r.shadowMu.Unlock()
		if err != nil {
			return res, fmt.Errorf("repo: gc: %w", err)
		}
		res.Collected++
	}
	r.gcRuns.Add(1)
	r.gcCollected.Add(int64(res.Collected))
	return res, nil
}

// shadowRecorder wraps the backend for Optimize's shadow build: every blob
// is registered in the repository's shadow set before it is written, and
// stays registered until release. This closes the content-addressed race
// with GC — without it, Optimize's Put could no-op on a blob that already
// exists (say, from a retired layout), GC could then judge that blob an
// orphan and delete it, and the swapped-in layout would reference a
// missing blob. With registration-before-Put and GC's check-and-delete
// under the same mutex, either GC sees the registration and spares the
// blob, or its delete completes before the registration and the Put that
// follows rewrites the blob.
type shadowRecorder struct {
	store.Backend
	repo *Repo
	ids  []store.ID
}

func newShadowRecorder(r *Repo) *shadowRecorder {
	return &shadowRecorder{Backend: r.backend, repo: r}
}

// Put registers the blob's address as shadow-protected, then writes it.
func (s *shadowRecorder) Put(data []byte) (store.ID, error) {
	id := store.HashBytes(data)
	s.repo.shadowMu.Lock()
	s.repo.shadow[id]++
	s.ids = append(s.ids, id)
	s.repo.shadowMu.Unlock()
	return s.Backend.Put(data)
}

// release drops this build's shadow protections: after a successful swap
// the blobs are referenced by the live entry table; after a failed one
// they are orphans for GC to collect.
func (s *shadowRecorder) release() {
	s.repo.shadowMu.Lock()
	for _, id := range s.ids {
		if s.repo.shadow[id] <= 1 {
			delete(s.repo.shadow, id)
		} else {
			s.repo.shadow[id]--
		}
	}
	s.ids = nil
	s.repo.shadowMu.Unlock()
}

// Close flushes pending telemetry and releases the metadata log. The
// repository must not be used afterwards. Safe on a replica, which has
// no log.
func (r *Repo) Close() error {
	_ = r.stats.Flush()
	if r.log == nil {
		return nil
	}
	return r.log.Close()
}
