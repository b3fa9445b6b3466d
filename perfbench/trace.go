package main

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"versiondb/internal/store"
)

// Tracing lives entirely in the benchmark: spans are recorded around the
// calls the benchmark makes into each layer's public surface (the vcs
// client, vcs.Server.Handler, the store.Backend and store.LogDevice the
// repository is built on, remote.Server.Handler, and the Optimize progress
// callback), never inside the program. Untraced runs install none of the
// wrappers below, so the end-to-end metrics measure the bare program.

// span is one timed call. req ties it to the client operation in flight
// when it ran; with one closed-loop client at most one operation is in
// flight, so the tracer's current-request register attributes every
// server-side span unambiguously.
type span struct {
	name  string
	req   int64
	dur   time.Duration
	bytes int64
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced phases share code with traced ones.
type tracer struct {
	mu    sync.Mutex
	spans []span
	cur   atomic.Int64 // request id of the operation in flight, 0 when idle
	next  int64
	kinds map[int64]string // request id → operation kind ("checkout", "commit", "optimize")
}

func newTracer() *tracer { return &tracer{kinds: map[int64]string{}} }

// begin opens a client operation of the given kind and returns its id.
func (t *tracer) begin(kind string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.kinds[id] = kind
	t.mu.Unlock()
	t.cur.Store(id)
	return id
}

// end closes operation id, recording its client-side span.
func (t *tracer) end(id int64, d time.Duration) {
	if t == nil {
		return
	}
	t.add(span{name: "client", req: id, dur: d})
	t.cur.Store(0)
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span for a call that started at start, attributed to the
// operation in flight.
func (t *tracer) record(name string, start time.Time, bytes int64) {
	t.add(span{name: name, req: t.cur.Load(), dur: time.Since(start), bytes: bytes})
}

// byReq groups the recorded spans of every operation of kind by request.
func (t *tracer) byReq(kind string) map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int64][]span{}
	for _, s := range t.spans {
		if t.kinds[s.req] == kind {
			out[s.req] = append(out[s.req], s)
		}
	}
	return out
}

// middleware wraps a handler in a span named name.
func (t *tracer) middleware(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, start, 0)
	})
}

// tracedBackend forwards every call to the wrapped backend and records a
// span around it. It implements exactly the capabilities the repository
// probes for with type assertions; wrapBackend picks the variant whose
// method set matches the wrapped backend's, because a wrapper that hid a
// capability (CostReporter, say) would silently change what the repository
// does — here, price the remote tier as local and pick another layout.
type tracedBackend struct {
	inner  store.Backend
	meta   store.MetaStore
	stream store.BlobStreamer
	logs   store.LogStore
	t      *tracer
}

// tracedTier adds the remote tier's reporting capabilities.
type tracedTier struct {
	*tracedBackend
	store.TierStatsReporter
	store.CostReporter
}

// wrapBackend returns b behind span-recording wrappers with the same
// capability set, or an error when b has a combination no wrapper mirrors.
func wrapBackend(b store.Backend, t *tracer) (store.Backend, error) {
	meta, okMeta := b.(store.MetaStore)
	stream, okStream := b.(store.BlobStreamer)
	logs, okLogs := b.(store.LogStore)
	if !okMeta || !okStream || !okLogs {
		return nil, fmt.Errorf("trace: backend %T lacks MetaStore, BlobStreamer or LogStore", b)
	}
	tb := &tracedBackend{inner: b, meta: meta, stream: stream, logs: logs, t: t}
	var out store.Backend = tb
	ts, okTier := b.(store.TierStatsReporter)
	cr, okCost := b.(store.CostReporter)
	switch {
	case okTier && okCost:
		out = &tracedTier{tracedBackend: tb, TierStatsReporter: ts, CostReporter: cr}
	case okTier || okCost:
		return nil, fmt.Errorf("trace: backend %T has only one of TierStatsReporter and CostReporter", b)
	}
	return out, nil
}

func (b *tracedBackend) Put(data []byte) (store.ID, error) {
	start := time.Now()
	id, err := b.inner.Put(data)
	b.t.record("backend.put", start, int64(len(data)))
	return id, err
}

func (b *tracedBackend) Get(id store.ID) ([]byte, error) {
	start := time.Now()
	data, err := b.inner.Get(id)
	b.t.record("backend.get", start, int64(len(data)))
	return data, err
}

func (b *tracedBackend) Has(id store.ID) bool                   { return b.inner.Has(id) }
func (b *tracedBackend) Delete(id store.ID) error               { return b.inner.Delete(id) }
func (b *tracedBackend) List() ([]store.ID, error)              { return b.inner.List() }
func (b *tracedBackend) PutMeta(name string, data []byte) error { return b.meta.PutMeta(name, data) }
func (b *tracedBackend) GetMeta(name string) ([]byte, error)    { return b.meta.GetMeta(name) }
func (b *tracedBackend) OpenLog(name string) (store.LogDevice, error) {
	d, err := b.logs.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &tracedLog{inner: d, t: b.t}, nil
}

// GetStream records one backend.get span per stream: the open plus every
// Read, summed and recorded when the stream closes. The reads happen while
// the server copies the body out, interleaved with delta application.
func (b *tracedBackend) GetStream(id store.ID) (io.ReadCloser, error) {
	start := time.Now()
	rc, err := b.stream.GetStream(id)
	if err != nil {
		b.t.record("backend.get", start, 0)
		return nil, err
	}
	return &tracedStream{inner: rc, t: b.t, req: b.t.cur.Load(), dur: time.Since(start)}, nil
}

type tracedStream struct {
	inner io.ReadCloser
	t     *tracer
	req   int64
	dur   time.Duration
	bytes int64
}

func (s *tracedStream) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := s.inner.Read(p)
	s.dur += time.Since(start)
	s.bytes += int64(n)
	return n, err
}

func (s *tracedStream) Close() error {
	s.t.add(span{name: "backend.get", req: s.req, dur: s.dur, bytes: s.bytes})
	return s.inner.Close()
}

// tracedLog wraps the metadata log's device.
type tracedLog struct {
	inner store.LogDevice
	t     *tracer
}

func (d *tracedLog) ReadAll() ([]byte, error) { return d.inner.ReadAll() }
func (d *tracedLog) Close() error             { return d.inner.Close() }

func (d *tracedLog) Append(p []byte) error {
	start := time.Now()
	err := d.inner.Append(p)
	d.t.record("metalog.append", start, int64(len(p)))
	return err
}

func (d *tracedLog) Truncate(size int64) error {
	start := time.Now()
	err := d.inner.Truncate(size)
	d.t.record("metalog.truncate", start, 0)
	return err
}
