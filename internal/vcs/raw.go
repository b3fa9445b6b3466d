package vcs

// GET /checkout/raw: the streaming sibling of GET /checkout. The payload
// travels as the raw response body — no JSON envelope, no base64 — pumped
// straight from the repository's composed reader stack, so neither the
// server nor a streaming client ever holds the whole payload in memory.
// The version's hex SHA-256, recorded at commit time, doubles as a strong
// ETag: a conditional re-fetch with If-None-Match is answered 304 from
// version metadata alone, without a single blob read.

import (
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
)

// Idle gzip writers are kept on a bounded free list rather than built per
// request: a fresh compressor costs ~1 MiB of allocation, several times
// the work of compressing a typical payload. The list holds GOMAXPROCS
// writers, as many as can be working at one instant; a writer returned to
// a full list is dropped. A sync.Pool is avoided on purpose, because its
// victim cache keeps a second generation of these large writers alive
// across a garbage collection.
var gzipWriters = make(chan *gzip.Writer, runtime.GOMAXPROCS(0))

// getGzipWriter returns an idle writer reset onto w. BestSpeed: on CSV
// versions it compresses as well as DefaultCompression at a third of the
// cost.
func getGzipWriter(w io.Writer) *gzip.Writer {
	select {
	case zw := <-gzipWriters:
		zw.Reset(w)
		return zw
	default:
		zw, _ := gzip.NewWriterLevel(w, gzip.BestSpeed) // the level is valid
		return zw
	}
}

// putGzipWriter recycles a writer whose stream was closed cleanly. It is
// pointed at io.Discard first so the idle writer pins no response.
func putGzipWriter(zw *gzip.Writer) {
	zw.Reset(io.Discard)
	select {
	case gzipWriters <- zw:
	default:
	}
}

// etagMatch implements the If-None-Match weak comparison (RFC 9110
// §13.1.2): any listed entity-tag — or "*" — matches the current one,
// ignoring W/ prefixes on either side. Weak comparison is correct for
// cache revalidation on GET; the tags themselves are strong (content
// hashes), so W/ prefixes only ever come from intermediaries.
func etagMatch(header, current string) bool {
	current = strings.TrimPrefix(current, "W/")
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		if cand == "*" {
			return true
		}
		if strings.TrimPrefix(cand, "W/") == current {
			return true
		}
	}
	return false
}

// acceptsGzip reports whether the request advertises gzip support. A
// q-value of 0 is a refusal; identity fallback is always available so no
// finer negotiation is needed.
func acceptsGzip(r *http.Request) bool {
	return headerQ(r.Header.Get("Accept-Encoding"), "gzip") > 0
}

// headerQ returns the q-value that a comma-separated Accept-style header
// (RFC 9110 §12.4.2) gives name, compared case-insensitively. A listed
// name without a parsable q parameter has q=1; an unlisted one has q=-1.
func headerQ(header, name string) float64 {
	for _, part := range strings.Split(header, ",") {
		item, params, _ := strings.Cut(part, ";")
		if !strings.EqualFold(strings.TrimSpace(item), name) {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			if v, ok := strings.CutPrefix(strings.TrimSpace(p), "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil {
					return f
				}
			}
		}
		return 1
	}
	return -1
}

func (s *Server) handleRawCheckout(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.URL.Query().Get("v"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
		return
	}
	hash, err := s.repo.VersionHash(v)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	etag := `"` + hash + `"`
	w.Header().Set("ETag", etag)
	// The body's coding depends on Accept-Encoding, so shared caches must
	// key on it; a 304 repeats the header (RFC 9110 §12.5.5, §15.4.5).
	w.Header().Set("Vary", "Accept-Encoding")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		// Revalidated from metadata alone: the repository was not asked to
		// reconstruct anything, so the 304 costs zero blob reads.
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rc, size, err := s.repo.CheckoutStream(v)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", octetStream)
	var dst io.Writer = w
	var zw *gzip.Writer
	if acceptsGzip(r) {
		// Compressed length is unknowable up front, so gzip trades the
		// Content-Length header away; the gzip trailer still lets clients
		// detect truncation.
		w.Header().Set("Content-Encoding", "gzip")
		zw = getGzipWriter(w)
		dst = zw
	} else if size >= 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	}
	w.WriteHeader(http.StatusOK)
	if _, err := io.Copy(dst, rc); err != nil {
		// Headers are gone; the only honest signal left is a killed
		// connection, which clients see as a truncated body rather than a
		// clean EOF at the advertised length.
		panic(http.ErrAbortHandler)
	}
	if zw != nil {
		// Only a cleanly closed writer is recycled; the abort paths drop
		// theirs with whatever half-written state it holds.
		if err := zw.Close(); err != nil {
			panic(http.ErrAbortHandler)
		}
		putGzipWriter(zw)
	}
}

// CheckoutStream fetches version v's payload as a stream from GET
// /checkout/raw. It returns the body reader and the payload size the
// response states (-1 when a relay re-framed the body and dropped it). It
// asks for identity. On CSV payloads under 64 KiB over loopback, gzip
// saved ~35% of the bytes but cost more CPU at both ends than that saving
// buys back on links faster than about 125 Mbit/s; larger payloads and
// slow links are unmeasured. An answer that carries a Content-Encoding
// anyway is refused rather than passed off as the payload. The caller must
// Close the reader; bytes are consumed directly from the socket, so a
// payload larger than client memory is fine.
func (c *Client) CheckoutStream(v int) (io.ReadCloser, int64, error) {
	path := fmt.Sprintf("/checkout/raw?v=%d", v)
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, fmt.Errorf("vcs: %s: %w", path, err)
	}
	// Setting the header also keeps the transport from asking for gzip
	// and inflating behind the caller's back.
	req.Header.Set("Accept-Encoding", "identity")
	httpResp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("vcs: %s: %w", path, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		defer httpResp.Body.Close()
		return nil, 0, decodeResponse(path, httpResp, nil)
	}
	if enc := httpResp.Header.Get("Content-Encoding"); enc != "" {
		httpResp.Body.Close()
		return nil, 0, fmt.Errorf("vcs: %s: unrequested Content-Encoding %q", path, enc)
	}
	return httpResp.Body, httpResp.ContentLength, nil
}
