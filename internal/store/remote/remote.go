package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"versiondb/internal/costs"
	"versiondb/internal/store"
)

// Object key namespaces. Blobs and chunks are content-addressed and
// immutable; meta documents and logs are named and mutable.
const (
	chunkPrefix = "c/" // c/<chunk sha256> — chunk bytes
	blobPrefix  = "b/" // b/<blob sha256>  — the blob itself if one chunk, else its manifest
	metaPrefix  = "m/" // m/<name>         — metadata document
	logPrefix   = "l/" // l/<name>         — append-only log
)

// errTransient marks failures worth retrying: 5xx responses, connection
// errors, and torn bodies. 404 and 4xx are authoritative and permanent.
var errTransient = errors.New("remote: transient failure")

// manifest is the chunk list stored at b/<blob id> for a blob of more
// than one chunk (and, in stores written before one-chunk blobs became
// one object, for every blob).
type manifest struct {
	Size   int64           `json:"size"`
	Chunks []manifestChunk `json:"chunks"`
}

type manifestChunk struct {
	ID   store.ID `json:"id"`
	Size int64    `json:"size"`
}

// Options configures a remote Store. The zero value is fully usable:
// default chunking, a 32 MiB near-tier object cache, adaptive hedging,
// and a handful of retries.
type Options struct {
	// CacheBytes bounds the near-tier object cache; 0 means
	// DefaultCacheBytes, negative disables caching entirely.
	CacheBytes int64
	// HedgeAfter is the delay before a second, racing request is sent for
	// a slow chunk fetch. 0 means adaptive: hedge after the observed p95
	// fetch latency (no hedging until enough samples). Negative disables
	// hedging. Either way the delay is capped at store.DefaultNegativeTTL
	// — past that point the serving path would already have given up on
	// the read being fast.
	HedgeAfter time.Duration
	// Retries bounds transient-failure retries per request; 0 means
	// DefaultRetries, negative disables retrying.
	Retries int
	// RetryBackoff is the base exponential backoff between retries; 0
	// means DefaultRetryBackoff.
	RetryBackoff time.Duration
	// RetrievalFactor is the per-read cost multiplier this tier reports
	// through store.CostReporter; 0 means costs.DefaultTierCosts().Remote.
	RetrievalFactor float64
	// HTTPClient overrides the transport (tests inject the httptest
	// server's client); nil means http.DefaultClient.
	HTTPClient *http.Client
}

// Defaults for the zero Options value.
const (
	DefaultCacheBytes   = int64(32 << 20)
	DefaultRetries      = 4
	DefaultRetryBackoff = 5 * time.Millisecond
)

// latencySamples is the ring size of the adaptive hedger's observations;
// minLatencySamples is how many it needs before hedging at all.
const (
	latencySamples    = 64
	minLatencySamples = 8
)

// Store is the remote-tier client: a content-addressed store.Backend
// whose blobs live in an S3-style HTTP object store. A blob the chunker
// cuts into one chunk — most deltas, being a few KiB — is one object,
// its own bytes at b/<id>; a larger blob is a manifest at b/<id> listing
// content-defined chunks at c/<chunk id>. Reads go through a byte-budget near-tier
// cache, hedge slow fetches, and retry transient failures; writes of a
// multi-chunk blob dedup chunk-wise against the remote before
// transferring.
//
// Its metadata documents are objects replaced wholesale, its logs are
// server-side append/truncate, and GetStream fetches a manifest's chunks
// as they are read. Beyond the Backend contract it reports
// store.TierStatsReporter and store.CostReporter. All methods are safe for
// concurrent use.
type Store struct {
	base    string // server URL, no trailing slash
	hc      *http.Client
	hedge   time.Duration // <0 off, 0 adaptive, >0 fixed
	retries int
	backoff time.Duration
	factor  float64

	cache *store.LRU[string] // near tier: one-object blobs, chunks and manifests by object key
	lat   *latencyRing

	stats tierCounters
}

// tierCounters is the atomic backing of store.TierStats.
type tierCounters struct {
	chunkFetches, chunkHits     atomic.Int64
	hedged, hedgeWins, retries  atomic.Int64
	chunksStored, chunksDeduped atomic.Int64
	bytesFetched                atomic.Int64
	bytesStored, bytesDeduped   atomic.Int64
}

// New returns a Store speaking to the object server at baseURL.
func New(baseURL string, opts Options) *Store {
	if opts.CacheBytes == 0 {
		opts.CacheBytes = DefaultCacheBytes
	}
	if opts.Retries == 0 {
		opts.Retries = DefaultRetries
	} else if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = DefaultRetryBackoff
	}
	if opts.RetrievalFactor <= 0 {
		opts.RetrievalFactor = costs.DefaultTierCosts().Remote
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Store{
		base:    strings.TrimRight(baseURL, "/"),
		hc:      hc,
		hedge:   opts.HedgeAfter,
		retries: opts.Retries,
		backoff: opts.RetryBackoff,
		factor:  opts.RetrievalFactor,
		cache:   store.NewLRUBytes[string](opts.CacheBytes),
		lat:     &latencyRing{},
	}
}

// Compile-time conformance to the backend contract and to both optional
// tier capabilities.
var (
	_ store.Backend           = (*Store)(nil)
	_ store.TierStatsReporter = (*Store)(nil)
	_ store.CostReporter      = (*Store)(nil)
)

// TierStats snapshots the remote tier's counters.
func (s *Store) TierStats() store.TierStats {
	return store.TierStats{
		ChunkFetches:  s.stats.chunkFetches.Load(),
		ChunkHits:     s.stats.chunkHits.Load(),
		Hedged:        s.stats.hedged.Load(),
		HedgeWins:     s.stats.hedgeWins.Load(),
		Retries:       s.stats.retries.Load(),
		ChunksStored:  s.stats.chunksStored.Load(),
		ChunksDeduped: s.stats.chunksDeduped.Load(),
		BytesFetched:  s.stats.bytesFetched.Load(),
		BytesStored:   s.stats.bytesStored.Load(),
		BytesDeduped:  s.stats.bytesDeduped.Load(),
	}
}

// RetrievalCostFactor reports the per-read cost multiplier of this tier
// relative to a local disk read (see costs.TierCosts).
func (s *Store) RetrievalCostFactor() float64 { return s.factor }

// Put stores data. A blob the chunker cuts into one chunk is written as
// one object, its own bytes at b/<id>, so a fresh one costs two requests:
// the existence probe and the PUT. A larger blob uploads only the chunks
// the remote does not already hold, then its manifest. Idempotent:
// re-putting an existing blob is a single existence probe.
func (s *Store) Put(data []byte) (store.ID, error) {
	ctx := context.Background()
	id := store.HashBytes(data)
	key := blobPrefix + string(id)
	if _, ok := s.cache.Get(key); ok {
		return id, nil
	}
	if ok, err := s.headObject(ctx, key); err != nil {
		return "", err
	} else if ok {
		return id, nil
	}
	chunks := Split(data, DefaultChunkerParams)
	if len(chunks) == 1 {
		if err := s.putObject(ctx, key, data); err != nil {
			return "", err
		}
		s.stats.chunksStored.Add(1)
		s.stats.bytesStored.Add(int64(len(data)))
		s.cache.Put(key, bytes.Clone(data))
		return id, nil
	}
	m := manifest{Size: int64(len(data))}
	for _, chunk := range chunks {
		cid := store.HashBytes(chunk)
		m.Chunks = append(m.Chunks, manifestChunk{ID: cid, Size: int64(len(chunk))})
		ckey := chunkPrefix + string(cid)
		// A cached chunk was either fetched from or stored to the remote,
		// so the remote has it — skip even the HEAD.
		if _, ok := s.cache.Get(ckey); ok {
			s.stats.chunksDeduped.Add(1)
			s.stats.bytesDeduped.Add(int64(len(chunk)))
			continue
		}
		if ok, err := s.headObject(ctx, ckey); err != nil {
			return "", err
		} else if ok {
			s.stats.chunksDeduped.Add(1)
			s.stats.bytesDeduped.Add(int64(len(chunk)))
			continue
		}
		if err := s.putObject(ctx, ckey, chunk); err != nil {
			return "", err
		}
		s.stats.chunksStored.Add(1)
		s.stats.bytesStored.Add(int64(len(chunk)))
		s.cache.Put(ckey, append([]byte(nil), chunk...))
	}
	doc, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("remote: put: %w", err)
	}
	if err := s.putObject(ctx, key, doc); err != nil {
		return "", err
	}
	s.cache.Put(key, doc)
	return id, nil
}

// Get returns the blob. A one-object blob costs one fetch of b/<id>; a
// manifest costs that fetch and then its chunks, each verified against
// its content address, and the whole blob's address is verified as well.
// The returned bytes belong to the caller.
func (s *Store) Get(id store.ID) ([]byte, error) {
	ctx := context.Background()
	obj, m, err := s.getBlobObject(ctx, id)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return bytes.Clone(obj), nil
	}
	data := make([]byte, 0, m.Size)
	for _, c := range m.Chunks {
		chunk, err := s.fetchChunk(ctx, c.ID)
		if err != nil {
			return nil, fmt.Errorf("remote: get %s: %w", shortID(id), err)
		}
		data = append(data, chunk...)
	}
	if store.HashBytes(data) != id {
		return nil, fmt.Errorf("remote: get %s: content hash mismatch", shortID(id))
	}
	s.cache.Put(blobPrefix+string(id), obj)
	return data, nil
}

// GetStream returns an incremental reader over the blob. A one-object
// blob is read whole, since it must be fetched to be told from a
// manifest, and verified before GetStream returns. A manifest's chunks
// are fetched lazily as the caller consumes them, so a large base payload
// never sits in memory whole; the running whole-blob hash is verified at
// EOF, and a mismatch surfaces as a Read error, never as silent
// truncation.
func (s *Store) GetStream(id store.ID) (io.ReadCloser, error) {
	obj, m, err := s.getBlobObject(context.Background(), id)
	if err != nil {
		return nil, err
	}
	if m == nil {
		return io.NopCloser(bytes.NewReader(obj)), nil
	}
	return &chunkReader{s: s, id: id, doc: obj, chunks: m.Chunks, hash: sha256.New()}, nil
}

// Has reports whether the blob exists (near tier or remote).
func (s *Store) Has(id store.ID) bool {
	if len(id) != 64 {
		return false
	}
	key := blobPrefix + string(id)
	if _, ok := s.cache.Get(key); ok {
		return true
	}
	ok, err := s.headObject(context.Background(), key)
	return err == nil && ok
}

// Delete removes the object at b/<id>: the whole of a one-object blob, a
// manifest otherwise. Chunks are shared across blobs (the whole point of
// content-defined chunking along a delta chain), so they are left
// behind; reclaiming unreferenced chunks is a server-side sweep, out of
// scope here. Deleting a missing blob is not an error.
func (s *Store) Delete(id store.ID) error {
	key := blobPrefix + string(id)
	s.cache.Remove(key)
	return s.deleteObject(context.Background(), key)
}

// List returns the IDs of all stored blobs in sorted order.
func (s *Store) List() ([]store.ID, error) {
	keys, err := s.listObjects(context.Background(), blobPrefix)
	if err != nil {
		return nil, err
	}
	ids := make([]store.ID, 0, len(keys))
	for _, k := range keys {
		ids = append(ids, store.ID(strings.TrimPrefix(k, blobPrefix)))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// PutMeta writes a named metadata document. The object PUT replaces the
// value wholesale server-side, so readers see old or new, never a mix.
func (s *Store) PutMeta(name string, data []byte) error {
	return s.putObject(context.Background(), metaPrefix+name, data)
}

// GetMeta reads a named metadata document; a missing name yields an
// error satisfying errors.Is(err, fs.ErrNotExist). Meta documents are
// mutable, so they are never cached.
func (s *Store) GetMeta(name string) ([]byte, error) {
	data, err := s.getObject(context.Background(), metaPrefix+name, false)
	if err != nil {
		return nil, fmt.Errorf("remote: meta %s: %w", name, err)
	}
	return data, nil
}

// OpenLog opens the named server-side append-only log.
func (s *Store) OpenLog(name string) (store.LogDevice, error) {
	return &logDevice{s: s, key: logPrefix + name}, nil
}

// getBlobObject fetches the object at b/<id>, near tier first, and tells
// its two forms apart by content address. An object whose SHA-256 is id
// is the blob itself: it comes back with a nil manifest, counted as one
// chunk fetch (or one chunk hit from the near tier), and is admitted to
// the near tier, having validated. Anything else must be a manifest: it
// comes back decoded beside its document, which the caller admits only
// once the chunks it lists reassemble to id, so a corrupt object is never
// pinned in the near tier.
func (s *Store) getBlobObject(ctx context.Context, id store.ID) ([]byte, *manifest, error) {
	if len(id) != 64 {
		return nil, nil, fmt.Errorf("remote: malformed id %q", id)
	}
	key := blobPrefix + string(id)
	obj, cached := s.cache.Get(key)
	if !cached {
		var err error
		if obj, err = s.hedgedGet(ctx, key); err != nil {
			return nil, nil, fmt.Errorf("remote: get %s: %w", shortID(id), err)
		}
	}
	if store.HashBytes(obj) == id {
		if cached {
			s.stats.chunkHits.Add(1)
		} else {
			s.stats.chunkFetches.Add(1)
			s.stats.bytesFetched.Add(int64(len(obj)))
			s.cache.Put(key, obj)
		}
		return obj, nil, nil
	}
	m, err := parseManifest(obj)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: get %s: %w", shortID(id), err)
	}
	return obj, m, nil
}

// parseManifest decodes a manifest document. Its size must be one its
// chunks can hold — Put never writes a chunk longer than the chunker's
// Max — since Get allocates the blob from it: a corrupt document is
// refused before anything is allocated on its word.
func parseManifest(doc []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("object is neither the blob nor a manifest: %w", err)
	}
	if m.Size < 0 || m.Size > int64(len(m.Chunks))*int64(DefaultChunkerParams.normalize().Max) {
		return nil, fmt.Errorf("bad manifest: size %d for %d chunks", m.Size, len(m.Chunks))
	}
	return &m, nil
}

// fetchChunk returns one chunk's bytes, near tier first, verifying the
// content address. One call is ONE logical fetch in the stats no matter
// how many HTTP requests the hedge/retry machinery raced for it.
func (s *Store) fetchChunk(ctx context.Context, cid store.ID) ([]byte, error) {
	ckey := chunkPrefix + string(cid)
	if data, ok := s.cache.Get(ckey); ok {
		s.stats.chunkHits.Add(1)
		return data, nil
	}
	data, err := s.hedgedGet(ctx, ckey)
	if err != nil {
		return nil, err
	}
	if store.HashBytes(data) != cid {
		return nil, fmt.Errorf("chunk %s: content hash mismatch", shortID(cid))
	}
	s.stats.chunkFetches.Add(1)
	s.stats.bytesFetched.Add(int64(len(data)))
	s.cache.Put(ckey, data)
	return data, nil
}

// hedgeDelay decides this fetch's hedge trigger: the configured fixed
// delay, the adaptive p95, or -1 for "do not hedge". Always capped at
// store.DefaultNegativeTTL — beyond that the serving path has already
// written the read off as slow.
func (s *Store) hedgeDelay() time.Duration {
	d := s.hedge
	if d < 0 {
		return -1
	}
	if d == 0 {
		d = s.lat.p95()
		if d <= 0 {
			return -1 // not enough samples yet
		}
	}
	if d > store.DefaultNegativeTTL {
		d = store.DefaultNegativeTTL
	}
	return d
}

// hedgedGet fetches one object, racing a second request against a slow
// first one. First response wins; the loser's request is canceled. A
// definitive miss (404) from either arm wins immediately — the object is
// equally absent on both.
func (s *Store) hedgedGet(ctx context.Context, key string) ([]byte, error) {
	delay := s.hedgeDelay()
	start := time.Now()
	if delay < 0 {
		data, err := s.getObject(ctx, key, false)
		if err == nil {
			s.lat.observe(time.Since(start))
		}
		return data, err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // kills the losing arm's in-flight request

	type result struct {
		data  []byte
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(hedge bool) {
		go func() {
			data, err := s.getObject(ctx, key, hedge)
			ch <- result{data, err, hedge}
		}()
	}
	launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	outstanding := 1
	timerC := timer.C
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timerC:
			timerC = nil
			s.stats.hedged.Add(1)
			launch(true)
			outstanding++
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					s.stats.hedgeWins.Add(1)
				}
				s.lat.observe(time.Since(start))
				return r.data, nil
			}
			if errors.Is(r.err, fs.ErrNotExist) || outstanding == 0 {
				return nil, r.err
			}
			// This arm failed terminally but the other is still running;
			// wait for it.
		}
	}
}

// withRetry runs op, retrying transient failures with exponential
// backoff until the retry budget or ctx runs out.
func (s *Store) withRetry(ctx context.Context, op func() error) error {
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || !errors.Is(err, errTransient) || attempt >= s.retries {
			return err
		}
		s.stats.retries.Add(1)
		if !sleepCtx(ctx, s.backoff<<uint(attempt)) {
			return err
		}
	}
}

// sleepCtx waits d or until ctx is done; it reports whether the full
// wait elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// hedgeHeader marks a hedged read's second request, so the server can
// tell it from the request it races (see Server.DelayOnce).
const hedgeHeader = "X-Hedge"

// getObject GETs one object with retry. 404 maps to fs.ErrNotExist.
// hedge marks the requests as a hedged read's second arm.
func (s *Store) getObject(ctx context.Context, key string, hedge bool) ([]byte, error) {
	var data []byte
	err := s.withRetry(ctx, func() error {
		var err error
		data, err = s.getOnce(ctx, key, hedge)
		return err
	})
	return data, err
}

// getOnce is a single GET attempt. Transport errors, 5xx, and short
// bodies (Content-Length mismatch — a torn response) are transient.
func (s *Store) getOnce(ctx context.Context, key string, hedge bool) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/o/"+key, nil)
	if err != nil {
		return nil, fmt.Errorf("get %s: %w", key, err)
	}
	if hedge {
		req.Header.Set(hedgeHeader, "1")
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("get %s: %w: %w", key, err, errTransient)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// A body cut short of its declared Content-Length surfaces
			// here as io.ErrUnexpectedEOF: a torn response.
			return nil, fmt.Errorf("get %s: torn body: %w: %w", key, err, errTransient)
		}
		return data, nil
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("get %s: %w", key, fs.ErrNotExist)
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("get %s: status %d: %w", key, resp.StatusCode, errTransient)
	default:
		return nil, fmt.Errorf("get %s: unexpected status %d", key, resp.StatusCode)
	}
}

// call issues one non-GET request with retry, discarding the body.
// 5xx and transport errors are transient; okStatus lists the accepted
// outcomes. notFoundOK treats 404 as acceptance (idempotent deletes).
func (s *Store) call(ctx context.Context, method, path string, body []byte, okStatus ...int) (int, []byte, error) {
	var status int
	var respBody []byte
	err := s.withRetry(ctx, func() error {
		req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
		resp, err := s.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("%s %s: %w: %w", method, path, err, errTransient)
		}
		defer resp.Body.Close()
		respBody, _ = io.ReadAll(resp.Body)
		status = resp.StatusCode
		if status >= 500 {
			return fmt.Errorf("%s %s: status %d: %w", method, path, status, errTransient)
		}
		for _, ok := range okStatus {
			if status == ok {
				return nil
			}
		}
		return fmt.Errorf("%s %s: unexpected status %d", method, path, status)
	})
	return status, respBody, err
}

func (s *Store) putObject(ctx context.Context, key string, data []byte) error {
	_, _, err := s.call(ctx, http.MethodPut, "/o/"+key, data, http.StatusCreated, http.StatusOK)
	return err
}

func (s *Store) headObject(ctx context.Context, key string) (bool, error) {
	status, _, err := s.call(ctx, http.MethodHead, "/o/"+key, nil, http.StatusOK, http.StatusNotFound)
	if err != nil {
		return false, err
	}
	return status == http.StatusOK, nil
}

func (s *Store) deleteObject(ctx context.Context, key string) error {
	_, _, err := s.call(ctx, http.MethodDelete, "/o/"+key, nil,
		http.StatusNoContent, http.StatusOK, http.StatusNotFound)
	return err
}

func (s *Store) listObjects(ctx context.Context, prefix string) ([]string, error) {
	_, body, err := s.call(ctx, http.MethodGet, "/list?prefix="+prefix, nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var keys []string
	if err := json.Unmarshal(body, &keys); err != nil {
		return nil, fmt.Errorf("remote: list: %w", err)
	}
	return keys, nil
}

// chunkReader streams a manifest's blob chunk by chunk, verifying each
// chunk's address on fetch and the whole blob's at EOF, where the
// manifest document is admitted to the near tier.
type chunkReader struct {
	s      *Store
	id     store.ID
	doc    []byte // the manifest document at b/<id>
	chunks []manifestChunk
	next   int // index of the next chunk to fetch
	buf    []byte
	hash   interface {
		io.Writer
		Sum([]byte) []byte
	}
	err error
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for len(r.buf) == 0 {
		if r.next >= len(r.chunks) {
			if hex.EncodeToString(r.hash.Sum(nil)) != string(r.id) {
				r.err = fmt.Errorf("remote: stream %s: content hash mismatch", shortID(r.id))
			} else {
				r.s.cache.Put(blobPrefix+string(r.id), r.doc)
				r.err = io.EOF
			}
			return 0, r.err
		}
		chunk, err := r.s.fetchChunk(context.Background(), r.chunks[r.next].ID)
		if err != nil {
			r.err = fmt.Errorf("remote: stream %s: %w", shortID(r.id), err)
			return 0, r.err
		}
		r.next++
		r.hash.Write(chunk)
		r.buf = chunk
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

func (r *chunkReader) Close() error {
	r.err = fs.ErrClosed
	return nil
}

// logDevice is a server-side append-only log. Appends and truncations
// mutate nothing on an injected 5xx (the server rejects before touching
// state), so retrying them is safe in this protocol.
type logDevice struct {
	s   *Store
	key string
}

// ReadAll returns the log's contents; a log never appended to is empty,
// matching the local devices' create-on-open semantics.
func (d *logDevice) ReadAll() ([]byte, error) {
	data, err := d.s.getObject(context.Background(), d.key, false)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return data, err
}

func (d *logDevice) Append(p []byte) error {
	_, _, err := d.s.call(context.Background(), http.MethodPost, "/append/"+d.key, p, http.StatusOK)
	return err
}

func (d *logDevice) Truncate(size int64) error {
	_, _, err := d.s.call(context.Background(), http.MethodPost,
		fmt.Sprintf("/truncate/%s?size=%d", d.key, size), nil, http.StatusOK)
	return err
}

func (d *logDevice) Close() error { return nil }

// latencyRing holds the last latencySamples successful fetch durations;
// the adaptive hedger triggers at its p95.
type latencyRing struct {
	mu      sync.Mutex
	samples [latencySamples]time.Duration
	n       int // total observations (ring is full once n ≥ len)
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[r.n%latencySamples] = d
	r.n++
}

// p95 returns the 95th-percentile observed latency, or 0 until
// minLatencySamples observations have accumulated. The lock covers only
// the copy of the ring onto the stack; the sort runs outside it.
func (r *latencyRing) p95() time.Duration {
	var sorted [latencySamples]time.Duration
	r.mu.Lock()
	n := min(r.n, latencySamples)
	copy(sorted[:], r.samples[:n])
	r.mu.Unlock()
	if n < minLatencySamples {
		return 0
	}
	slices.Sort(sorted[:n])
	return sorted[(n*95)/100]
}

// shortID abbreviates a content address for error messages.
func shortID(id store.ID) string {
	if len(id) > 12 {
		return string(id[:12])
	}
	return string(id)
}
