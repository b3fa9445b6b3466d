package store

import (
	"bytes"
	"fmt"
	"io"

	"versiondb/internal/delta"
)

// Streaming checkout: the chain replay of Checkout expressed as a composed
// reader stack instead of repeated full materializations. The base of the
// stack is the nearest cached ancestor's payload (or the materialized chain
// root, streamed from the backend); each chain edge above it contributes
// one delta.ApplyReader stage — the applier the buffered path runs over
// memory — holding only its encoded delta, read in place, plus a bounded
// window. Per-request memory is therefore O(chain × window), independent
// of payload size — the property that lets a large artifact be served
// without ever existing in server memory whole. Admission follows the
// buffered path's one rule: only the version asked for enters the cache.

// CheckoutStream reconstructs version v as a stream. It returns the payload
// reader, the payload size in bytes when known (-1 when it is not — cold
// streams discover their length only at EOF), and the construction error.
// An exact cache hit streams straight from the cached payload; a cold
// stream tees its bytes into cache admission as the client drains it (see
// cacheTee). Unlike the buffered path, concurrent cold streams of the same
// version do not coalesce — each builds its own stack, since a shared
// in-flight result would mean buffering the whole payload, exactly what
// this path exists to avoid. The negative-result TTL still applies, so a
// failing version does not multiply backend load. Callers must Close the
// returned stream.
func (l *Layout) CheckoutStream(v int) (io.ReadCloser, int64, error) {
	if v < 0 || v >= len(l.Entries) {
		return nil, 0, fmt.Errorf("store: checkout version %d out of range [0,%d)", v, len(l.Entries))
	}
	if p, ok := l.cache.Get(v); ok {
		return io.NopCloser(bytes.NewReader(p)), int64(len(p)), nil
	}
	if err := l.negFailure(v); err != nil {
		return nil, 0, err
	}
	rc, size, err := l.streamCold(v)
	if err != nil {
		l.noteFailure(v, err)
		return nil, 0, err
	}
	return rc, size, nil
}

// streamCold builds the reader stack for a version the cache missed. Errors
// here are construction errors (chain walk, delta blob fetch); errors from
// the stream itself surface from Read.
func (l *Layout) streamCold(v int) (io.ReadCloser, int64, error) {
	chain, cached, found, err := l.chainTo(v, l.cache)
	if err != nil {
		return nil, 0, err
	}
	cl := &streamCloser{}
	var r io.Reader
	i := len(chain) - 1
	size := int64(-1)
	if found {
		r = bytes.NewReader(cached)
		if len(chain) == 0 {
			// v itself was admitted between the fast-path miss and here
			// (e.g. by a just-finished flight): an exact hit after all.
			size = int64(len(cached))
		}
	} else {
		base, err := l.blobStream(chain[i])
		if err != nil {
			return nil, 0, err
		}
		r = base
		cl.closers = append(cl.closers, base)
		i--
	}
	for ; i >= 0; i-- {
		u := chain[i]
		blob, err := l.blob(u)
		if err != nil {
			cl.Close()
			return nil, 0, fmt.Errorf("store: checkout %d: reading delta for %d: %w", v, u, err)
		}
		l.blobReads.Add(1)
		r = delta.ApplyReader(blob, r)
		l.deltas.Add(1)
	}
	if size < 0 && l.cache != nil {
		// A cold stream admits v on clean EOF; buffering respects the
		// cache's admission cap so an oversized payload is dropped, not
		// accumulated.
		r = &cacheTee{r: r, cache: l.cache, gen: l.cache.generation(), v: v, limit: l.cache.admissionLimit()}
	}
	cl.r = r
	return cl, size, nil
}

// blobStream opens one blob for streaming on the serving path, counting it
// toward BlobReads; compressed entries inflate on the way through.
func (l *Layout) blobStream(v int) (io.ReadCloser, error) {
	e := l.Entries[v]
	rc, err := l.backend.GetStream(e.Blob)
	if err != nil {
		return nil, err
	}
	l.blobReads.Add(1)
	if e.Compressed {
		return &stackedCloser{ReadCloser: delta.DecompressReader(rc), under: rc}, nil
	}
	return rc, nil
}

// streamCloser pairs the composed reader stack with the underlying
// resources (base blob stream, flate reader) to release on Close.
type streamCloser struct {
	r       io.Reader
	closers []io.Closer
}

func (s *streamCloser) Read(p []byte) (int, error) { return s.r.Read(p) }

func (s *streamCloser) Close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

// stackedCloser closes a wrapping ReadCloser and then what it wraps.
type stackedCloser struct {
	io.ReadCloser
	under io.Closer
}

func (s *stackedCloser) Close() error {
	err := s.ReadCloser.Close()
	if uerr := s.under.Close(); err == nil {
		err = uerr
	}
	return err
}

// cacheTee mirrors a cold stream's bytes into a bounded buffer and admits
// the complete payload to the cache on clean EOF — the streaming form of
// the one admission rule: the requested version, and nothing below it.
// The buffer honors the cache's admission cap: once the payload provably
// exceeds what Put could ever admit, the buffer is dropped and the stream
// continues untouched, so an oversized payload is never held whole just to
// be refused at the door. Abandoned or erroring streams admit nothing,
// and neither does a stream that outlives a Clear of the cache.
type cacheTee struct {
	r       io.Reader
	cache   *VersionCache
	gen     uint64 // the cache's generation when the stream was built
	v       int
	limit   int64 // admission cap; < 0 unbounded, 0 means "never admit"
	buf     []byte
	dropped bool
	done    bool
}

func (t *cacheTee) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	if n > 0 && !t.dropped {
		if t.limit == 0 || (t.limit > 0 && int64(len(t.buf))+int64(n) > t.limit) {
			t.buf, t.dropped = nil, true
		} else {
			t.buf = append(t.buf, p[:n]...)
		}
	}
	if err == io.EOF && !t.dropped && !t.done {
		t.done = true
		t.cache.putSince(t.gen, t.v, t.buf)
	}
	return n, err
}
