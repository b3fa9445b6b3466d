package vcs

// Tests for the streaming raw checkout endpoint: byte equality with the
// JSON path, Content-Length, ETag/304 revalidation (with the zero-blob-read
// guarantee), and gzip negotiation.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"strconv"
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
		if size >= 0 && size != int64(len(want)) {
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
