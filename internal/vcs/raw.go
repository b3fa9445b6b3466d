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
	"strconv"
	"strings"
)

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

// acceptsGzip reports whether the request advertises gzip support. Coding
// names are case-insensitive (RFC 9110 §8.4.1). A q-value of 0 is a
// refusal, anything else (including absence of q) is acceptance; identity
// fallback is always available so no finer negotiation is needed.
func acceptsGzip(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc, q, hasQ := strings.Cut(strings.TrimSpace(part), ";")
		if !strings.EqualFold(strings.TrimSpace(enc), "gzip") {
			continue
		}
		if hasQ {
			if v, ok := strings.CutPrefix(strings.TrimSpace(q), "q="); ok {
				if f, err := strconv.ParseFloat(v, 64); err == nil && f == 0 {
					return false
				}
			}
		}
		return true
	}
	return false
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
	w.Header().Set("Content-Type", "application/octet-stream")
	var dst io.Writer = w
	var zw *gzip.Writer
	if acceptsGzip(r) {
		// Compressed length is unknowable up front, so gzip trades the
		// Content-Length header away; the gzip trailer still lets clients
		// detect truncation.
		w.Header().Set("Content-Encoding", "gzip")
		zw = gzip.NewWriter(w)
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
		if err := zw.Close(); err != nil {
			panic(http.ErrAbortHandler)
		}
	}
}

// CheckoutStream fetches version v's payload as a stream from GET
// /checkout/raw. It returns the body reader and the payload size when the
// transport knows it (-1 otherwise, e.g. when the response is
// transparently gunzipped). The caller must Close the reader; bytes are
// consumed directly from the socket, so a payload larger than client
// memory is fine.
func (c *Client) CheckoutStream(v int) (io.ReadCloser, int64, error) {
	path := fmt.Sprintf("/checkout/raw?v=%d", v)
	httpResp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, fmt.Errorf("vcs: %s: %w", path, err)
	}
	if httpResp.StatusCode != http.StatusOK {
		defer httpResp.Body.Close()
		return nil, 0, decodeResponse(path, httpResp, nil)
	}
	return httpResp.Body, httpResp.ContentLength, nil
}
