// Package vcs exposes the prototype repository over HTTP, mirroring the
// paper's client-server prototype ("users interact with the version
// management system in a client-server model over HTTP"). The server owns
// the repository; the client offers commit/checkout/branch/merge/log/
// optimize calls. Payloads travel base64-encoded inside JSON bodies, with
// three exceptions. POST /commit takes a body sent as Content-Type:
// application/octet-stream as the payload itself, with the commit's
// metadata in the query string; that is the form Client.Commit and
// Client.Merge send. GET /checkout answers a request that sends Accept:
// application/octet-stream with the payload as the raw body, which is
// the form Client.Checkout asks for. GET /checkout/raw streams the
// payload as the raw response body (strong ETag, If-None-Match → 304,
// optional gzip), so large checkouts cost neither a base64 blow-up nor a
// whole-payload buffer on either end.
package vcs

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"time"

	"versiondb/internal/autotune"
	"versiondb/internal/repo"
)

// CommitRequest creates a new version on a branch.
type CommitRequest struct {
	Branch  string `json:"branch"`
	Message string `json:"message"`
	Payload []byte `json:"payload"` // encoding/json base64-encodes []byte
	// MergeParent, when ≥ 0, makes this a merge commit of (branch tip,
	// MergeParent) with the client-merged payload.
	MergeParent int `json:"merge_parent"`
}

// CommitResponse returns the new version id.
type CommitResponse struct {
	ID int `json:"id"`
}

// CheckoutResponse carries a reconstructed payload. It is GET /checkout's
// default body; a request that accepts octetStream gets the payload raw.
type CheckoutResponse struct {
	ID      int    `json:"id"`
	Payload []byte `json:"payload"`
}

// octetStream is the media type of a raw payload body.
const octetStream = "application/octet-stream"

// isOctetStream reports whether a Content-Type header names octetStream,
// parameters and letter case aside.
func isOctetStream(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == octetStream
}

// maxPresize bounds the buffer a raw body's stated length may allocate
// before any of it arrives. A longer body still reads whole, into a
// buffer that grows with the bytes actually received, so a peer that
// claims a length it never sends cannot make its reader allocate it.
const maxPresize = 16 << 20

// readPayload reads a raw payload body of stated length n (-1 when
// unknown). Up to maxPresize it reads into one buffer of exactly n
// bytes; a body that ends before n bytes is an error.
func readPayload(body io.Reader, n int64) ([]byte, error) {
	switch {
	case n < 0:
		return io.ReadAll(body)
	case n <= maxPresize:
		payload := make([]byte, n)
		if _, err := io.ReadFull(body, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload, err := io.ReadAll(io.LimitReader(body, n))
	if err == nil && int64(len(payload)) < n {
		err = io.ErrUnexpectedEOF
	}
	return payload, err
}

// BranchRequest creates a branch at a version.
type BranchRequest struct {
	Name string `json:"name"`
	From int    `json:"from"`
}

// LogResponse lists all versions.
type LogResponse struct {
	Versions []repo.VersionInfo `json:"versions"`
}

// LogRecord is one framed metadata-log record on the wire: the sequence
// number, record type byte, and opaque payload exactly as the primary's
// log holds them. Replicas re-apply records by type without interpreting
// them here.
type LogRecord struct {
	Seq  uint64 `json:"seq"`
	Type byte   `json:"type"`
	Data []byte `json:"data"` // encoding/json base64-encodes []byte
}

// LogTailResponse answers GET /log?from=N: the metadata-log tail past the
// follower's cursor. When the cursor predates the latest compaction the
// response leads with the compaction snapshot (base64 document covering
// everything through BaseSeq) and the records that follow it; otherwise
// Snapshot is absent and Records continue the follower's own history.
// Head is the primary's current last sequence number — a caught-up
// follower sees Head equal to its cursor and an empty Records list.
type LogTailResponse struct {
	BaseSeq  uint64      `json:"base_seq"`
	Snapshot []byte      `json:"snapshot,omitempty"`
	Records  []LogRecord `json:"records,omitempty"`
	Head     uint64      `json:"head"`
}

// OptimizeRequest triggers a global storage re-layout. Solver selects a
// registry solver by name ("mst", "spt", "lmg", "mp", "last", "gith",
// "exact", "p4", "p5") with its knobs. Unset knobs a solver requires are
// defaulted server-side from the repository's cost envelope.
type OptimizeRequest struct {
	// Solver names a registry solver; empty runs "mst".
	Solver string `json:"solver,omitempty"`
	// Budget is the storage budget β for budget-constrained solvers; 0
	// falls back to BudgetFactor × minimum storage.
	Budget float64 `json:"budget,omitempty"`
	// BudgetFactor multiplies the minimum storage cost into a default
	// budget when Budget is 0. Default 1.25.
	BudgetFactor float64 `json:"budget_factor,omitempty"`
	// Theta is the recreation bound (max Φ for mp/exact, Σ Φ for p5).
	Theta float64 `json:"theta,omitempty"`
	// Alpha is LAST's stretch bound.
	Alpha float64 `json:"alpha,omitempty"`
	// Iters bounds the p4/p5 binary search; 0 means 40.
	Iters      int  `json:"iters,omitempty"`
	RevealHops int  `json:"reveal_hops,omitempty"`
	Compress   bool `json:"compress,omitempty"`
	// NoAutoWeights disables telemetry-derived weights for this solve:
	// weight-consuming solvers (the "weighted" column of `vms solvers` /
	// `vbench -exp solvers`) run the plain uniform objective even when
	// access statistics exist.
	NoAutoWeights bool `json:"no_auto_weights,omitempty"`
}

// OptimizeResponse reports the solution the optimizer chose.
type OptimizeResponse struct {
	Solver      string  `json:"solver"` // registry name that ran
	Algorithm   string  `json:"algorithm"`
	Storage     float64 `json:"storage"`
	SumR        float64 `json:"sum_recreation"`
	MaxR        float64 `json:"max_recreation"`
	StoredBytes int64   `json:"stored_bytes"`
}

// OptimizeAcceptedResponse answers POST /optimize?async=1: the re-layout
// was queued as a background job. Poll GET /jobs/{job_id} (optionally with
// ?wait=1 to block until terminal) or cancel with DELETE /jobs/{job_id}.
type OptimizeAcceptedResponse struct {
	JobID string `json:"job_id"`
}

// JobInfo is the wire form of one background optimize job.
type JobInfo struct {
	ID string `json:"id"`
	// State is pending | running | done | failed | canceled.
	State string `json:"state"`
	// Solver is the registry solver the job runs, as requested: empty when
	// the request named none and the job runs "mst".
	Solver string `json:"solver"`
	// Phase is the optimizer's last progress report ("snapshot", "diff",
	// "solve", "rewrite", "swap", "retry"); empty until the job runs.
	Phase    string    `json:"phase,omitempty"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started,omitzero"`
	Finished time.Time `json:"finished,omitzero"`
	// Result is present once State is done; it matches what the
	// synchronous POST /optimize would have returned for the same request.
	Result *OptimizeResponse `json:"result,omitempty"`
	// Error is the failure or cancellation message for failed/canceled.
	Error string `json:"error,omitempty"`
}

// JobsResponse lists every job in submission order.
type JobsResponse struct {
	Jobs []JobInfo `json:"jobs"`
}

// HotVersion is one entry of the stats hot list: a version and its decayed
// access count.
type HotVersion struct {
	ID    int     `json:"id"`
	Count float64 `json:"count"`
}

// StatsResponse reports repository statistics, access telemetry, and — when
// the server runs with auto-tuning — the policy engine's state.
type StatsResponse struct {
	Versions     int    `json:"versions"`
	Branches     int    `json:"branches"`
	Materialized int    `json:"materialized"`
	StoredBytes  int64  `json:"stored_bytes"`
	LogicalBytes int64  `json:"logical_bytes"`
	MaxChainHops int    `json:"max_chain_hops"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	// CacheHitRatio is hits / (hits + misses), 0 before any lookup.
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// CacheEvictions counts entries the checkout LRU pushed out to stay
	// within its bound (versions or bytes).
	CacheEvictions uint64 `json:"cache_evictions"`
	// CacheEntries and CacheBytes report the LRU's current occupancy;
	// CacheBudgetBytes is the configured byte budget (0 when the cache
	// runs in version-count mode or is disabled). CacheBytes never
	// exceeds CacheBudgetBytes when a budget is set — the observable
	// contract behind `vmsd -cache-bytes`.
	CacheEntries     int   `json:"cache_entries"`
	CacheBytes       int64 `json:"cache_bytes"`
	CacheBudgetBytes int64 `json:"cache_budget_bytes,omitempty"`
	// BlobReads is the cumulative number of backend blob fetches on the
	// serving path, across layout swaps — the cold-checkout I/O the cache
	// and checkout coalescing did not absorb. The ratio of BlobReads to
	// Accesses is the backend amplification a byte-budget tuner wants to
	// drive down.
	BlobReads int64 `json:"blob_reads"`
	// Accesses is the raw number of version accesses recorded by the
	// telemetry layer (serving checkouts only).
	Accesses uint64 `json:"accesses"`
	// WeightedPhi estimates the recreation cost the current workload
	// experiences against the current layout (access-weighted mean cold
	// checkout work, in stored bytes).
	WeightedPhi float64 `json:"weighted_phi"`
	// Hot lists the most-accessed versions by decayed count, descending.
	Hot []HotVersion `json:"hot,omitempty"`
	// Autotune reports the policy engine's state — trigger inputs, job
	// counts, and the last auto-optimize outcome. Absent when the server
	// runs without -autotune.
	Autotune *autotune.Status `json:"autotune,omitempty"`
	// Metadata-log counters (zero on a replica, which keeps no log of its
	// own). LogRecords/LogBytes
	// are the live tail after the latest compaction; LogReplayed and
	// LogTornTails describe what startup recovery found.
	LogRecords     int64 `json:"log_records,omitempty"`
	LogBytes       int64 `json:"log_bytes,omitempty"`
	LogAppends     int64 `json:"log_appends,omitempty"`
	LogCompactions int64 `json:"log_compactions,omitempty"`
	LogReplayed    int64 `json:"log_replayed,omitempty"`
	LogTornTails   int64 `json:"log_torn_tails,omitempty"`
	// GC counters: sweeps run and orphan blobs collected since startup.
	GCRuns      int64 `json:"gc_runs,omitempty"`
	GCCollected int64 `json:"gc_collected,omitempty"`
	// RetrievalFactor is the backend's per-read cost multiplier relative
	// to a local disk read; WeightedPhi is already scaled by it. Omitted
	// (meaning 1) for local backends.
	RetrievalFactor float64 `json:"retrieval_factor,omitempty"`
	// Remote reports the remote tier's chunk/hedge/dedup counters.
	// Absent when the server runs on a local backend — and absent from
	// servers predating the remote tier, which clients must tolerate.
	Remote *RemoteTierStats `json:"remote,omitempty"`
	// Replica reports the replay cursor of a read-only replica — how far
	// behind the primary this server is allowed to answer. Absent on the
	// primary.
	Replica *ReplicaStats `json:"replica,omitempty"`
}

// ReplicaStats is a replica's staleness report: the last metadata-log
// sequence it applied, how many records the primary is ahead (-1 when the
// primary could not be reached for a head probe), and when the replica
// last applied a batch (Unix seconds, 0 before the first apply).
type ReplicaStats struct {
	AppliedOffset uint64 `json:"applied_offset"`
	LagRecords    int64  `json:"lag_records"`
	LastApplyUnix int64  `json:"last_apply_unix"`
}

// RemoteTierStats is the wire form of store.TierStats: the remote tier's
// chunk cache traffic, tail-latency hedging outcomes, transient retries,
// and upload dedup.
type RemoteTierStats struct {
	ChunkFetches int64 `json:"chunk_fetches"`
	ChunkHits    int64 `json:"chunk_hits"`
	// ChunkHitRatio is near-tier hits / (hits + remote fetches).
	ChunkHitRatio float64 `json:"chunk_hit_ratio"`
	Hedged        int64   `json:"hedged"`
	HedgeWins     int64   `json:"hedge_wins"`
	Retries       int64   `json:"retries"`
	ChunksStored  int64   `json:"chunks_stored"`
	ChunksDeduped int64   `json:"chunks_deduped"`
	BytesFetched  int64   `json:"bytes_fetched"`
	BytesStored   int64   `json:"bytes_stored"`
	BytesDeduped  int64   `json:"bytes_deduped"`
	// DedupRatio is the fraction of uploaded bytes the remote already
	// held.
	DedupRatio float64 `json:"dedup_ratio"`
}

// GCResponse reports one mark-and-sweep pass over the blob store:
// Scanned blobs examined, Live blobs referenced by the current layout,
// and Collected orphans deleted.
type GCResponse struct {
	Scanned   int `json:"scanned"`
	Live      int `json:"live"`
	Collected int `json:"collected"`
}

// ErrorResponse is the uniform error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatusError is returned by Client calls when the server answers with a
// non-200 status. Code preserves the HTTP status so callers can tell a
// missing version or branch (404) from a conflict (409) or a server fault
// (500); use errors.As, or IsNotFound for the common case.
type StatusError struct {
	Code int    // HTTP status code
	Path string // request path
	Msg  string // server-provided error message, if any
}

func (e *StatusError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("vcs: %s: server (%d): %s", e.Path, e.Code, e.Msg)
	}
	return fmt.Sprintf("vcs: %s: status %d", e.Path, e.Code)
}

// IsNotFound reports whether err is a server 404 — an unknown version or
// branch.
func IsNotFound(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}
