package vcs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"versiondb/internal/autotune"
	"versiondb/internal/jobs"
	"versiondb/internal/repo"
	"versiondb/internal/solve"
	"versiondb/internal/store"
)

// Server serves one repository over HTTP. Concurrency control lives in the
// repository itself (an RWMutex multi-reader service with a copy-on-write
// Optimize), so read endpoints (/checkout, /log, /stats, /jobs) proceed in
// parallel and serialize only against write endpoints (/commit, /branch) —
// the server adds no lock layer of its own. Long re-layouts run either
// synchronously (POST /optimize, canceled by client disconnect) or as
// background jobs (POST /optimize?async=1) managed by a bounded
// jobs.Manager and steered through the /jobs endpoints.
type Server struct {
	repo *repo.Repo
	jobs *jobs.Manager
	// results holds each job's wire result, rendered once when the job's
	// optimize completed (job id → *atomic.Pointer[OptimizeResponse]).
	// Rendering at completion freezes StoredBytes at swap time — the same
	// number the synchronous path reports — instead of re-reading live
	// repository stats on every poll.
	results sync.Map
	// tuner, when non-nil, is the auto-optimization policy engine looping
	// in the background; tunerStop ends its loop before jobs are closed.
	tuner     *autotune.Engine
	tunerStop context.CancelFunc
	// replicaStatus, when non-nil on a replica server, reports the
	// follower's staleness for GET /stats (see WithReplicaStatus).
	replicaStatus func() (applied uint64, lag int64, lastApply time.Time)
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

type serverConfig struct {
	jobWorkers    int
	autotune      *autotune.Policy
	replicaStatus func() (applied uint64, lag int64, lastApply time.Time)
}

// WithJobWorkers bounds how many background optimize jobs run at once
// (default jobs.DefaultWorkers); excess submissions queue as pending.
func WithJobWorkers(n int) ServerOption {
	return func(c *serverConfig) { c.jobWorkers = n }
}

// WithAutotune starts an auto-optimization policy engine alongside the
// server: commit-count and Φ-drift triggers submit background re-layouts
// through the server's own job manager (so they show up in GET /jobs), and
// GET /stats reports the engine's state. The engine stops with Close.
// Ignored on replica servers — re-layouts belong to the primary.
func WithAutotune(p autotune.Policy) ServerOption {
	return func(c *serverConfig) { c.autotune = &p }
}

// WithReplicaStatus supplies the follower's live staleness report for a
// replica server's GET /stats: applied sequence, records behind the
// primary (-1 when the primary is unreachable), and last apply time.
// Without it a replica server falls back to the repository's own cursor
// and reports lag -1 (unknown).
func WithReplicaStatus(fn func() (applied uint64, lag int64, lastApply time.Time)) ServerOption {
	return func(c *serverConfig) { c.replicaStatus = fn }
}

// NewServer wraps a repository. Call Close when done to cancel any
// background jobs still running and stop the autotune loop, if one was
// enabled.
func NewServer(r *repo.Repo, opts ...ServerOption) *Server {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{repo: r, jobs: jobs.NewManager(cfg.jobWorkers), replicaStatus: cfg.replicaStatus}
	if r.IsReplica() {
		// Replicas never journal, recover, or auto-submit optimize jobs —
		// every mutating path belongs to the primary. The job manager
		// stays constructed so the /jobs read endpoints answer (empty).
		return s
	}
	// The repository's metadata log doubles as the job journal, making
	// queued and running jobs durable across restarts; recovery must run
	// before autotune so adopted ids are claimed first.
	s.jobs.SetJournal(r)
	s.recoverJobs()
	if cfg.autotune != nil {
		s.tuner = autotune.New(r, s.jobs, *cfg.autotune)
		ctx, cancel := context.WithCancel(context.Background())
		s.tunerStop = cancel
		go s.tuner.Run(ctx)
	}
	return s
}

// recoverJobs re-establishes the durable jobs a previous process left
// behind. Still-queued jobs are resubmitted under their original ids so
// clients polling GET /jobs/{id} keep working across the restart. Jobs
// that were mid-run when the process died may have partially executed,
// so the interrupted attempt is recorded as a failed tombstone under its
// original id and the work is retried as a fresh submission — both
// outcomes stay visible. Specs that no longer parse (e.g. a solver was
// removed) are dropped rather than wedging startup.
func (s *Server) recoverJobs() {
	// Two passes: every original id is claimed (resubmitted or adopted as
	// a tombstone) before any fresh retry is minted, so a retry's
	// manager-assigned id can never collide with a recovered job later in
	// the journal.
	type retry struct {
		spec string
		opts repo.OptimizeOptions
	}
	var retries []retry
	for _, rj := range s.repo.RecoveredJobs() {
		var req OptimizeRequest
		if err := json.Unmarshal([]byte(rj.Spec), &req); err != nil {
			continue
		}
		opts, err := req.Options()
		if err != nil {
			continue
		}
		if rj.WasRunning {
			_, _ = s.jobs.AdoptFailed(rj.ID, opts.Request, "interrupted by restart")
			retries = append(retries, retry{spec: rj.Spec, opts: opts})
			continue
		}
		_, _ = s.submitOptimize(rj.ID, rj.Spec, opts)
	}
	for _, rt := range retries {
		_, _ = s.submitOptimize("", rt.spec, rt.opts)
	}
}

// Autotune returns the server's policy engine, nil when auto-tuning is
// disabled.
func (s *Server) Autotune() *autotune.Engine { return s.tuner }

// Close stops the autotune loop (if any), then cancels every live
// background job and waits for them to wind down.
func (s *Server) Close() {
	if s.tunerStop != nil {
		s.tunerStop()
	}
	s.jobs.Close()
}

// Handler returns the HTTP routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /commit", s.handleCommit)
	mux.HandleFunc("GET /checkout", s.handleCheckout)
	mux.HandleFunc("GET /checkout/raw", s.handleRawCheckout)
	mux.HandleFunc("POST /branch", s.handleBranch)
	mux.HandleFunc("GET /log", s.handleLog)
	mux.HandleFunc("POST /optimize", s.handleOptimize)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /gc", s.handleGC)
	mux.HandleFunc("GET /jobs", s.handleJobs)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// StatusClientClosedRequest is reported when a solve is aborted because the
// client went away (nginx's non-standard 499; the response is best-effort
// since nobody is usually listening).
const StatusClientClosedRequest = 499

// statusFor maps repository, solver and job errors to HTTP statuses:
// missing versions, branches and job ids are 404, malformed optimize
// requests (unknown solver name, invalid knobs) are 400, conflicts
// (duplicate branch, empty repo, infeasible bound, a copy-on-write swap
// that kept losing to concurrent commits) are 409, writes against a
// read-only replica are 403, cancellations — whether from a client
// disconnect or a server-side DELETE /jobs/{id} — are 499, and only
// genuinely unexpected faults fall through to 500.
func statusFor(err error) int {
	switch {
	case errors.Is(err, repo.ErrUnknownVersion), errors.Is(err, repo.ErrUnknownBranch),
		errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, repo.ErrReplica):
		return http.StatusForbidden
	case errors.Is(err, solve.ErrUnknownSolver), errors.Is(err, solve.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, repo.ErrBranchExists), errors.Is(err, repo.ErrEmptyRepo),
		errors.Is(err, repo.ErrInvalidMerge), errors.Is(err, solve.ErrInfeasible),
		errors.Is(err, repo.ErrOptimizeConflict):
		return http.StatusConflict
	case errors.Is(err, solve.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// handleCommit takes the commit in one of two forms. A body sent as
// octetStream is the payload itself, with branch, message and
// merge_parent in the query string; that is the form Client.Commit
// sends, so no base64 is decoded on the write path. Any other body is a
// JSON CommitRequest.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request) {
	var req CommitRequest
	var err error
	if isOctetStream(r.Header.Get("Content-Type")) {
		req, err = rawCommitRequest(r)
	} else {
		req.MergeParent = -1
		if err = json.NewDecoder(r.Body).Decode(&req); err != nil {
			err = fmt.Errorf("decode: %w", err)
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var id int
	if req.MergeParent >= 0 {
		id, err = s.repo.Merge(req.Branch, req.MergeParent, req.Payload, req.Message)
	} else {
		id, err = s.repo.Commit(req.Branch, req.Payload, req.Message)
	}
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, CommitResponse{ID: id})
}

// rawCommitRequest reads a raw-form commit: the metadata from the query
// string (merge_parent absent means a plain commit) and the payload from
// the body.
func rawCommitRequest(r *http.Request) (CommitRequest, error) {
	q := r.URL.Query()
	req := CommitRequest{Branch: q.Get("branch"), Message: q.Get("message"), MergeParent: -1}
	if q.Has("merge_parent") {
		mp, err := strconv.Atoi(q.Get("merge_parent"))
		if err != nil {
			return req, fmt.Errorf("bad merge_parent: %w", err)
		}
		req.MergeParent = mp
	}
	payload, err := readPayload(r.Body, r.ContentLength)
	if err != nil {
		return req, fmt.Errorf("read payload: %w", err)
	}
	req.Payload = payload
	return req, nil
}

func (s *Server) handleCheckout(w http.ResponseWriter, r *http.Request) {
	// The body's form depends on Accept, so shared caches must key on it.
	w.Header().Set("Vary", "Accept")
	v, err := strconv.Atoi(r.URL.Query().Get("v"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
		return
	}
	payload, err := s.repo.Checkout(v)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if wantsOctetStream(r) {
		w.Header().Set("Content-Type", octetStream)
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		_, _ = w.Write(payload)
		return
	}
	writeJSON(w, http.StatusOK, CheckoutResponse{ID: v, Payload: payload})
}

// wantsOctetStream reports whether a GET /checkout request negotiates the
// raw form: Accept lists octetStream with a nonzero q-value no lower than
// application/json's. Wildcards never select it, so a request with no
// Accept, or with "*/*", still gets the JSON CheckoutResponse.
func wantsOctetStream(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	q := headerQ(accept, octetStream)
	return q > 0 && q >= headerQ(accept, "application/json")
}

func (s *Server) handleBranch(w http.ResponseWriter, r *http.Request) {
	var req BranchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	err := s.repo.Branch(req.Name, req.From)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// logPollTimeout bounds how long GET /log?from=N&wait=1 blocks for new
// records before answering with an empty tail. Long-polling followers
// simply re-issue the request; the bound keeps a silent primary from
// pinning connections forever.
const logPollTimeout = 10 * time.Second

// handleLog serves two reads behind one path: without ?from it is the
// human-facing version history (the original /log), and with ?from=N it is
// the replication feed — the metadata-log tail past sequence N, optionally
// long-polled with ?wait=1 (the request blocks until the next append or
// the poll timeout; an empty tail is the normal "caught up" answer, not an
// error).
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	if !r.URL.Query().Has("from") {
		writeJSON(w, http.StatusOK, LogResponse{Versions: s.repo.Log()})
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from: %w", err))
		return
	}
	ctx := r.Context()
	if boolParam(r, "wait") {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, logPollTimeout)
		defer cancel()
	}
	view, err := s.repo.LogTail(ctx, from, boolParam(r, "wait"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp := LogTailResponse{BaseSeq: view.BaseSeq, Snapshot: view.Snapshot, Head: view.Head}
	for _, rec := range view.Records {
		resp.Records = append(resp.Records, LogRecord{Seq: rec.Seq, Type: byte(rec.Type), Data: rec.Data})
	}
	writeJSON(w, http.StatusOK, resp)
}

// Options maps the wire request onto repository options — the one mapping
// the HTTP server and the vms CLI share. Unknown solver names surface as
// ErrUnknownSolver before anything runs, so the async path answers 400
// synchronously instead of minting a doomed job; an empty name is left for
// Optimize to default.
func (req OptimizeRequest) Options() (repo.OptimizeOptions, error) {
	if req.Solver != "" {
		if _, err := solve.Describe(req.Solver); err != nil {
			return repo.OptimizeOptions{}, err
		}
	}
	return repo.OptimizeOptions{
		Request: solve.Request{
			Solver: req.Solver,
			Budget: req.Budget,
			Theta:  req.Theta,
			Alpha:  req.Alpha,
			Iters:  req.Iters,
		},
		BudgetFactor:  req.BudgetFactor,
		RevealHops:    req.RevealHops,
		Compress:      req.Compress,
		NoAutoWeights: req.NoAutoWeights,
	}, nil
}

// optimizeResponse renders a solve result with the repository's current
// physical footprint.
func (s *Server) optimizeResponse(res *solve.Result) *OptimizeResponse {
	return &OptimizeResponse{
		Solver:      res.Solver,
		Algorithm:   res.Algorithm,
		Storage:     res.Storage,
		SumR:        res.SumR,
		MaxR:        res.MaxR,
		StoredBytes: s.repo.Stats().StoredBytes,
	}
}

// boolParam interprets a truthy query flag (?async=1, ?wait=true, ...);
// every boolean flag accepts the same spellings.
func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleOptimize maps the request JSON onto a solve.Request and dispatches
// through the repository's copy-on-write Optimize. Synchronously it runs
// under r.Context(), so a client disconnect cancels a long-running solve;
// with ?async=1 it queues a background job instead and answers 202 with
// the job id immediately — readers stay unblocked either way, since the
// solver never holds the repository write lock.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	opts, err := req.Options()
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	if boolParam(r, "async") {
		// The spec is the wire request itself, journaled with the job so a
		// restarted server can rebuild and re-run it.
		spec, err := json.Marshal(req)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("encode spec: %w", err))
			return
		}
		snap, err := s.submitOptimize("", string(spec), opts)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusAccepted, OptimizeAcceptedResponse{JobID: snap.ID})
		return
	}
	res, err := s.repo.Optimize(r.Context(), opts)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, *s.optimizeResponse(res))
}

// submitOptimize queues a durable background optimize: a fresh
// submission when id is empty, or a recovered queued job resubmitted
// under its original id. The holder outlives the request that minted it:
// the runner fills it when the optimize completes (possibly before the
// submit call even returns), and jobInfo reads it when rendering the
// done job.
func (s *Server) submitOptimize(id, spec string, opts repo.OptimizeOptions) (jobs.Snapshot, error) {
	holder := new(atomic.Pointer[OptimizeResponse])
	run := func(ctx context.Context, progress func(string)) (*solve.Result, error) {
		jobOpts := opts
		jobOpts.Progress = progress
		res, err := s.repo.Optimize(ctx, jobOpts)
		if err == nil {
			holder.Store(s.optimizeResponse(res))
		}
		return res, err
	}
	var snap jobs.Snapshot
	var err error
	if id == "" {
		snap, err = s.jobs.SubmitSpec(spec, opts.Request, run)
	} else {
		snap, err = s.jobs.Resubmit(id, spec, opts.Request, run)
	}
	if err != nil {
		return snap, err
	}
	s.results.Store(snap.ID, holder)
	return snap, nil
}

// jobInfo renders a job snapshot onto the wire.
func (s *Server) jobInfo(snap jobs.Snapshot) JobInfo {
	info := JobInfo{
		ID:       snap.ID,
		State:    string(snap.State),
		Solver:   snap.Request.Solver,
		Phase:    snap.Phase,
		Created:  snap.Created,
		Started:  snap.Started,
		Finished: snap.Finished,
		Error:    snap.Err,
	}
	if snap.Result != nil {
		if h, ok := s.results.Load(snap.ID); ok {
			if r := h.(*atomic.Pointer[OptimizeResponse]).Load(); r != nil {
				info.Result = r
			}
		}
		if info.Result == nil {
			// No frozen holder: an autotune-submitted job (which never
			// passes through handleOptimize), or the instant between a job
			// finishing and the submitting handler registering the holder.
			// Rendered live, so StoredBytes reflects the current layout.
			info.Result = s.optimizeResponse(snap.Result)
		}
	}
	return info
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	snaps := s.jobs.List()
	resp := JobsResponse{Jobs: make([]JobInfo, 0, len(snaps))}
	for _, snap := range snaps {
		resp.Jobs = append(resp.Jobs, s.jobInfo(snap))
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJob reports one job; with ?wait=1 it blocks (under the request
// context) until the job reaches a terminal state.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var snap jobs.Snapshot
	var err error
	if boolParam(r, "wait") {
		snap, err = s.jobs.Wait(r.Context(), id)
	} else {
		snap, err = s.jobs.Get(id)
	}
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobInfo(snap))
}

// handleJobCancel requests server-side cancellation. The cancellation
// reaches the solver through the job's context and resurfaces as the same
// solve.ErrCanceled sentinel a client disconnect produces; the job lands
// in the canceled state. Canceling an already-finished job is an
// idempotent no-op; only an unknown id is an error (404).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, err := s.jobs.Cancel(r.PathValue("id"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, s.jobInfo(snap))
}

// handleGC runs a mark-and-sweep pass over the blob store, deleting
// blobs no layout entry references. Commits are blocked for the sweep's
// duration (it holds the repository read lock); checkouts proceed.
func (s *Server) handleGC(w http.ResponseWriter, _ *http.Request) {
	res, err := s.repo.GC()
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, GCResponse(res))
}

// hotListSize bounds the hot-version list GET /stats reports.
const hotListSize = 10

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	st := s.repo.Stats()
	resp := StatsResponse{
		Versions:         st.Versions,
		Branches:         st.Branches,
		Materialized:     st.Materialized,
		StoredBytes:      st.StoredBytes,
		LogicalBytes:     st.LogicalBytes,
		MaxChainHops:     st.MaxChainHops,
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		CacheEvictions:   st.CacheEvictions,
		CacheEntries:     st.CacheEntries,
		CacheBytes:       st.CacheBytes,
		CacheBudgetBytes: st.CacheBudgetBytes,
		BlobReads:        st.BlobReads,
		Accesses:         st.Accesses,
		WeightedPhi:      s.repo.WeightedPhi(),
	}
	resp.LogRecords = st.Log.Records
	resp.LogBytes = st.Log.Bytes
	resp.LogAppends = st.Log.Appends
	resp.LogCompactions = st.Log.Compactions
	resp.LogReplayed = st.Log.Replayed
	resp.LogTornTails = st.Log.TornTails
	resp.GCRuns = st.GCRuns
	resp.GCCollected = st.GCCollected
	if st.RetrievalFactor != 1 {
		resp.RetrievalFactor = st.RetrievalFactor
	}
	if st.Remote != nil {
		resp.Remote = &RemoteTierStats{
			ChunkFetches:  st.Remote.ChunkFetches,
			ChunkHits:     st.Remote.ChunkHits,
			ChunkHitRatio: st.Remote.ChunkHitRatio(),
			Hedged:        st.Remote.Hedged,
			HedgeWins:     st.Remote.HedgeWins,
			Retries:       st.Remote.Retries,
			ChunksStored:  st.Remote.ChunksStored,
			ChunksDeduped: st.Remote.ChunksDeduped,
			BytesFetched:  st.Remote.BytesFetched,
			BytesStored:   st.Remote.BytesStored,
			BytesDeduped:  st.Remote.BytesDeduped,
			DedupRatio:    st.Remote.DedupRatio(),
		}
	}
	resp.CacheHitRatio = store.CacheStats{Hits: st.CacheHits, Misses: st.CacheMisses}.HitRatio()
	for _, h := range s.repo.HotVersions(hotListSize) {
		resp.Hot = append(resp.Hot, HotVersion{ID: h.Version, Count: h.Count})
	}
	if s.tuner != nil {
		status := s.tuner.Status()
		resp.Autotune = &status
	}
	if _, _, isReplica := s.repo.ReplicaStatus(); isReplica {
		rs := &ReplicaStats{LagRecords: -1}
		if s.replicaStatus != nil {
			applied, lag, last := s.replicaStatus()
			rs.AppliedOffset = applied
			rs.LagRecords = lag
			if !last.IsZero() {
				rs.LastApplyUnix = last.Unix()
			}
		} else {
			applied, last, _ := s.repo.ReplicaStatus()
			rs.AppliedOffset = applied
			if !last.IsZero() {
				rs.LastApplyUnix = last.Unix()
			}
		}
		resp.Replica = rs
	}
	writeJSON(w, http.StatusOK, resp)
}
