package vcs

// Tests for the streaming raw checkout endpoint: byte equality with the
// JSON path, Content-Length, ETag/304 revalidation (with the zero-blob-read
// guarantee), gzip negotiation and the reuse of gzip writers, and the
// client's identity-only contract.

import (
	"bytes"
	"compress/gzip"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"versiondb/internal/repo"
)

func commitChain(t *testing.T, c *Client, n int) [][]byte {
	t.Helper()
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := payload(t, int64(100+i), 40+5*i)
		if _, err := c.Commit(repo.DefaultBranch, p, "raw seed"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		payloads = append(payloads, p)
	}
	return payloads
}

func TestCheckoutRawStreamsBytes(t *testing.T) {
	c, url := newServerURL(t)
	payloads := commitChain(t, c, 4)

	for v, want := range payloads {
		rc, size, err := c.CheckoutStream(v)
		if err != nil {
			t.Fatalf("CheckoutStream(%d): %v", v, err)
		}
		got, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatalf("drain %d: %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("raw stream %d diverges from committed payload", v)
		}
		if size != int64(len(want)) {
			t.Errorf("stream %d size = %d, want %d", v, size, len(want))
		}
	}

	// Headers, uncompressed: exact Content-Length and a quoted strong ETag.
	req, _ := http.NewRequest(http.MethodGet, url+"/checkout/raw?v=1", nil)
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("raw GET: %v", err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(payloads[1])) {
		t.Errorf("Content-Length = %q, want %d", got, len(payloads[1]))
	}
	etag := resp.Header.Get("ETag")
	if len(etag) < 3 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		t.Errorf("ETag %q is not a quoted entity-tag", etag)
	}
}

func TestCheckoutRawConditional304(t *testing.T) {
	c, url := newServerURL(t)
	commitChain(t, c, 3)

	resp, err := http.Get(url + "/checkout/raw?v=2")
	if err != nil {
		t.Fatalf("first GET: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatalf("no ETag on first response")
	}

	before, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	for _, inm := range []string{etag, "W/" + etag, `"bogus", ` + etag, "*"} {
		req, _ := http.NewRequest(http.MethodGet, url+"/checkout/raw?v=2", nil)
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("conditional GET: %v", err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: status %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("304 carried a %d-byte body", len(body))
		}
		if got := resp.Header.Get("ETag"); got != etag {
			t.Errorf("304 ETag = %q, want %q", got, etag)
		}
		if got := resp.Header.Get("Vary"); got != "Accept-Encoding" {
			t.Errorf("304 Vary = %q, want Accept-Encoding", got)
		}
	}
	after, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if after.BlobReads != before.BlobReads {
		t.Errorf("304 revalidations cost %d blob reads, want 0", after.BlobReads-before.BlobReads)
	}

	// A non-matching tag must yield a full 200.
	req, _ := http.NewRequest(http.MethodGet, url+"/checkout/raw?v=2", nil)
	req.Header.Set("If-None-Match", `"0000"`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("mismatched conditional GET: %v", err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("mismatched If-None-Match: status %d, want 200", resp2.StatusCode)
	}
}

func TestCheckoutRawGzip(t *testing.T) {
	c, url := newServerURL(t)
	payloads := commitChain(t, c, 2)

	// Coding names are case-insensitive (RFC 9110 §8.4.1).
	for _, enc := range []string{"gzip", "GZIP"} {
		req, _ := http.NewRequest(http.MethodGet, url+"/checkout/raw?v=1", nil)
		req.Header.Set("Accept-Encoding", enc)
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			t.Fatalf("%s GET: %v", enc, err)
		}
		if got := resp.Header.Get("Content-Encoding"); got != "gzip" {
			t.Fatalf("Accept-Encoding %s: Content-Encoding = %q, want gzip", enc, got)
		}
		if got := resp.Header.Get("Vary"); got != "Accept-Encoding" {
			t.Errorf("Accept-Encoding %s: Vary = %q, want Accept-Encoding", enc, got)
		}
		compressed, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read compressed body: %v", err)
		}
		// The handler never sets Content-Length on a gzip response (the
		// compressed size is unknowable up front), but net/http may compute one
		// for a small buffered body — if so it must describe the compressed
		// bytes, not the payload.
		if cl := resp.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(compressed)) {
			t.Errorf("gzip Content-Length = %q, body is %d bytes", cl, len(compressed))
		}
		zr, err := gzip.NewReader(bytes.NewReader(compressed))
		if err != nil {
			t.Fatalf("gzip reader: %v", err)
		}
		got, err := io.ReadAll(zr)
		if err != nil {
			t.Fatalf("gunzip: %v", err)
		}
		if !bytes.Equal(got, payloads[1]) {
			t.Fatalf("gunzipped payload diverges")
		}
	}

	// An explicit q=0 refusal must get identity bytes back.
	req2, _ := http.NewRequest(http.MethodGet, url+"/checkout/raw?v=1", nil)
	req2.Header.Set("Accept-Encoding", "gzip;q=0")
	resp2, err := http.DefaultTransport.RoundTrip(req2)
	if err != nil {
		t.Fatalf("q=0 GET: %v", err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("Content-Encoding"); got != "" {
		t.Errorf("q=0 still compressed: Content-Encoding %q", got)
	}
	if got := resp2.Header.Get("Vary"); got != "Accept-Encoding" {
		t.Errorf("q=0: Vary = %q, want Accept-Encoding", got)
	}
}

func TestCheckoutRawErrors(t *testing.T) {
	c, url := newServerURL(t)
	commitChain(t, c, 1)

	if _, _, err := c.CheckoutStream(99); err == nil {
		t.Fatalf("CheckoutStream(99) succeeded")
	} else {
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound {
			t.Errorf("CheckoutStream(99): %v, want 404 StatusError", err)
		}
	}
	resp, err := http.Get(url + "/checkout/raw?v=notanumber")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad version: status %d, want 400", resp.StatusCode)
	}
}

// hexLines is n bytes of random hex in 64 KiB lines: text that gzip only
// halves, so a large one keeps the server compressing long after a client
// has stopped reading, yet few enough lines to diff cheaply on commit.
func hexLines(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	raw := make([]byte, 32<<10)
	out := make([]byte, 0, n+len(raw)*2+1)
	for len(out) < n {
		rng.Read(raw)
		out = hex.AppendEncode(out, raw)
		out = append(out, '\n')
	}
	return out
}

// readStream drains CheckoutStream(v) and closes it.
func readStream(c *Client, v int) ([]byte, error) {
	rc, _, err := c.CheckoutStream(v)
	if err != nil {
		return nil, err
	}
	got, err := io.ReadAll(rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return got, err
}

// gzipStream opens GET /checkout/raw?v= the way a third-party client that
// asks for gzip would, and returns the inflating reader and the body to
// close.
func gzipStream(base string, v int) (*gzip.Reader, io.Closer, error) {
	req, err := http.NewRequest(http.MethodGet, base+"/checkout/raw?v="+strconv.Itoa(v), nil)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Accept-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	if enc := resp.Header.Get("Content-Encoding"); resp.StatusCode != http.StatusOK || enc != "gzip" {
		resp.Body.Close()
		return nil, nil, fmt.Errorf("status %d, Content-Encoding %q", resp.StatusCode, enc)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		resp.Body.Close()
		return nil, nil, err
	}
	return zr, resp.Body, nil
}

// Reused writers must carry no state from one response into the next,
// including from a response the client abandoned mid-body, whose writer
// the server drops instead of recycling.
func TestCheckoutRawConcurrentGzip(t *testing.T) {
	c, url := newServerURL(t)
	payloads := [][]byte{hexLines(1, 2<<20)}
	if _, err := c.Commit(repo.DefaultBranch, payloads[0], "large"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	payloads = append(payloads, commitChain(t, c, 8)...)

	// Abandon the large version after its first bytes.
	zr, body, err := gzipStream(url, 0)
	if err != nil {
		t.Fatalf("gzip stream 0: %v", err)
	}
	head := make([]byte, 100)
	if _, err := io.ReadFull(zr, head); err != nil {
		t.Fatalf("read head: %v", err)
	}
	if !bytes.Equal(head, payloads[0][:len(head)]) {
		t.Fatalf("abandoned stream's head diverges")
	}
	body.Close()

	const workers, rounds = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				v := 1 + (g+r)%(len(payloads)-1)
				if r == rounds-1 && g == 0 {
					v = 0
				}
				zr, body, err := gzipStream(url, v)
				if err != nil {
					t.Errorf("worker %d: gzip stream %d: %v", g, v, err)
					return
				}
				got, err := io.ReadAll(zr)
				body.Close()
				if err != nil || !bytes.Equal(got, payloads[v]) {
					t.Errorf("worker %d: version %d: %d bytes, err %v; want %d bytes", g, v, len(got), err, len(payloads[v]))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The client asks for identity, so a gzip answer, whole or cut off, is
// refused outright rather than handed over as the payload, and the
// connection it arrived on is not left in a state that fails the next
// call.
func TestCheckoutStreamTruncatedGzip(t *testing.T) {
	whole := hexLines(2, 64<<10)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(whole)
	zw.Close()
	cut := zbuf.Bytes()[:zbuf.Len()/2]

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("v") {
		case "0":
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(zbuf.Bytes())
		case "1":
			w.Header().Set("Content-Encoding", "gzip")
			w.Write(cut)
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		default:
			w.Write(whole)
		}
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)

	for v := 0; v < 2; v++ {
		if rc, _, err := c.CheckoutStream(v); err == nil {
			rc.Close()
			t.Fatalf("CheckoutStream(%d) accepted a gzip answer", v)
		}
		if got, err := readStream(c, 2); err != nil || !bytes.Equal(got, whole) {
			t.Fatalf("stream after refusing %d: %d bytes, err %v; want %d bytes", v, len(got), err, len(whole))
		}
	}
}

// CheckoutStream asks for identity and returns the body with its
// Content-Length as the size.
func TestCheckoutStreamIdentity(t *testing.T) {
	want := hexLines(3, 4<<10)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept-Encoding"); got != "identity" {
			t.Errorf("Accept-Encoding = %q, want identity", got)
		}
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		w.Write(want)
	}))
	t.Cleanup(srv.Close)

	rc, size, err := NewClient(srv.URL).CheckoutStream(0)
	if err != nil {
		t.Fatalf("CheckoutStream: %v", err)
	}
	defer rc.Close()
	if size != int64(len(want)) {
		t.Errorf("identity size = %d, want Content-Length %d", size, len(want))
	}
	if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, want) {
		t.Errorf("identity body: %d bytes, err %v; want %d bytes", len(got), err, len(want))
	}
}

// countingTransport counts the response body bytes that cross the wire.
type countingTransport struct{ n atomic.Int64 }

func (ct *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &ct.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (cb *countingBody) Read(p []byte) (int, error) {
	n, err := cb.ReadCloser.Read(p)
	cb.n.Add(int64(n))
	return n, err
}

// newHitServer serves one committed CSV version of about 10 KiB from a
// warm cache, the shape of a hot checkout.
func newHitServer(tb testing.TB) (*Client, *countingTransport, []byte) {
	tb.Helper()
	r, err := repo.Init(tb.TempDir())
	if err != nil {
		tb.Fatalf("Init: %v", err)
	}
	r.EnableCacheBytes(1 << 20)
	srv := httptest.NewServer(NewServer(r).Handler())
	tb.Cleanup(srv.Close)
	ct := &countingTransport{}
	c := NewClient(srv.URL)
	c.http = &http.Client{Transport: ct}
	want := payload(tb, 7, 200)
	if _, err := c.Commit(repo.DefaultBranch, want, "hot"); err != nil {
		tb.Fatalf("Commit: %v", err)
	}
	if got, err := readStream(c, 0); err != nil || !bytes.Equal(got, want) {
		tb.Fatalf("warm-up checkout: %d bytes, err %v", len(got), err)
	}
	return c, ct, want
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hitIdentity reads version 0 into buf the way CheckoutStream does.
func hitIdentity(c *Client, buf *bytes.Buffer) error {
	rc, _, err := c.CheckoutStream(0)
	if err != nil {
		return err
	}
	defer rc.Close()
	buf.Reset()
	_, err = buf.ReadFrom(rc)
	return err
}

// hitGzip reads version 0 into buf through req, which asks for gzip,
// inflating through zr, a reader reused from one call to the next.
func hitGzip(c *Client, req *http.Request, zr *gzip.Reader, buf *bytes.Buffer) error {
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if enc := resp.Header.Get("Content-Encoding"); enc != "gzip" {
		return fmt.Errorf("Content-Encoding %q, want gzip", enc)
	}
	buf.Reset()
	if err := zr.Reset(resp.Body); err != nil {
		return err
	}
	_, err = buf.ReadFrom(zr)
	return err
}

// hitCases are the two ways a cache hit travels: identity is what
// CheckoutStream asks for, and gzip is what a caller that asks for
// compression gets from the server's writer pool.
func hitCases(tb testing.TB, c *Client) []struct {
	name string
	hit  func(*bytes.Buffer) error
} {
	req, err := http.NewRequest(http.MethodGet, c.base+"/checkout/raw?v=0", nil)
	if err != nil {
		tb.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	var zr gzip.Reader
	return []struct {
		name string
		hit  func(*bytes.Buffer) error
	}{
		{"identity", func(buf *bytes.Buffer) error { return hitIdentity(c, buf) }},
		{"gzip", func(buf *bytes.Buffer) error { return hitGzip(c, req, &zr, buf) }},
	}
}

// A cache-hit checkout, server and client together, must allocate far less
// than one gzip coder costs to build. The gzip case guards the server's
// writer pool: a handler that built a fresh writer per hit would fail it.
func TestCheckoutRawHitAllocs(t *testing.T) {
	c, _, want := newHitServer(t)
	for _, tc := range hitCases(t, c) {
		t.Run(tc.name, func(t *testing.T) {
			const n = 200
			var buf bytes.Buffer
			before := heapAllocs()
			for i := 0; i < n; i++ {
				if err := tc.hit(&buf); err != nil || !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("checkout %d: %d bytes, err %v", i, buf.Len(), err)
				}
			}
			if mean := (heapAllocs() - before) / n; mean >= 128<<10 {
				t.Errorf("cache-hit checkout allocates %d KiB, want < 128 KiB", mean>>10)
			}
		})
	}
}

// BenchmarkCheckoutRawHit reports a cache-hit checkout's latency and
// allocation, server and client together, next to its response size on
// the wire (resp_B/op), for each of hitCases. The two sides are the
// compression trade.
func BenchmarkCheckoutRawHit(b *testing.B) {
	c, ct, want := newHitServer(b)
	for _, tc := range hitCases(b, c) {
		b.Run(tc.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			ct.n.Store(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tc.hit(&buf); err != nil || buf.Len() != len(want) {
					b.Fatalf("checkout: %d bytes, err %v", buf.Len(), err)
				}
			}
			b.ReportMetric(float64(ct.n.Load())/float64(b.N), "resp_B/op")
		})
	}
}
