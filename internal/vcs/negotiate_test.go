package vcs

// Tests for GET /checkout's negotiated raw form: Client.Checkout sends
// Accept: application/octet-stream and reads the payload as the body;
// JSON stays the default and the fallback for servers that ignore Accept.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"versiondb/internal/repo"
)

// getCheckout issues GET /checkout?v=v with the given Accept header (none
// when empty) and returns the response with its body read.
func getCheckout(t *testing.T, url, v, accept string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/checkout?v="+v, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /checkout?v=%s: %v", v, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// TestCheckoutNegotiatedRoundTrip: an empty version and one over 1 MiB
// come back byte-identical through Client.Checkout, and the raw response
// states its type, exact length and Vary: Accept.
func TestCheckoutNegotiatedRoundTrip(t *testing.T) {
	c, url := newServerURL(t)
	payloads := [][]byte{payload(t, 1, 3), nil, hexLines(2, 1<<20+1)}
	for i, p := range payloads {
		if _, err := c.Commit(repo.DefaultBranch, p, "negotiate"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	for v, want := range payloads {
		got, err := c.Checkout(v)
		if err != nil {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d): %d bytes, want %d identical bytes", v, len(got), len(want))
		}
		resp, body := getCheckout(t, url, strconv.Itoa(v), octetStream)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("raw GET v=%d: status %d", v, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != octetStream {
			t.Errorf("v=%d: Content-Type %q, want %q", v, ct, octetStream)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("v=%d: Content-Length %q, want %d", v, cl, len(want))
		}
		if vary := resp.Header.Get("Vary"); vary != "Accept" {
			t.Errorf("v=%d: Vary %q, want Accept", v, vary)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("v=%d: raw body differs from the committed payload", v)
		}
	}
}

// TestCheckoutNegotiatedErrors: errors stay JSON ErrorResponses in the
// negotiated form, and Client.Checkout maps them to *StatusError.
func TestCheckoutNegotiatedErrors(t *testing.T) {
	c, url := newServerURL(t)
	if _, err := c.Commit(repo.DefaultBranch, payload(t, 1, 3), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	_, err := c.Checkout(99)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("Checkout(99) = %v, want a 404 StatusError", err)
	}
	if !strings.Contains(se.Msg, repo.ErrUnknownVersion.Error()) {
		t.Errorf("StatusError.Msg = %q, want the server's %q", se.Msg, repo.ErrUnknownVersion)
	}
	for _, tc := range []struct {
		v    string
		code int
	}{{"99", http.StatusNotFound}, {"abc", http.StatusBadRequest}} {
		resp, body := getCheckout(t, url, tc.v, octetStream)
		if resp.StatusCode != tc.code {
			t.Errorf("v=%s: status %d, want %d", tc.v, resp.StatusCode, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("v=%s: error Content-Type %q, want application/json", tc.v, ct)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("v=%s: body %q is not an ErrorResponse (%v)", tc.v, body, err)
		}
	}
}

// TestCheckoutNegotiatedDefaultsToJSON: without an Accept that selects the
// raw form, GET /checkout answers the documented JSON CheckoutResponse,
// still with Vary: Accept.
func TestCheckoutNegotiatedDefaultsToJSON(t *testing.T) {
	c, url := newServerURL(t)
	want := payload(t, 1, 10)
	if _, err := c.Commit(repo.DefaultBranch, want, "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for _, accept := range []string{
		"",
		"*/*",
		"application/json",
		"application/octet-stream;q=0",
		"application/json, application/octet-stream;q=0.5",
	} {
		resp, body := getCheckout(t, url, "0", accept)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: status %d", accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: Content-Type %q, want application/json", accept, ct)
		}
		if vary := resp.Header.Get("Vary"); vary != "Accept" {
			t.Errorf("Accept %q: Vary %q, want Accept", accept, vary)
		}
		var cr CheckoutResponse
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatalf("Accept %q: decode CheckoutResponse: %v", accept, err)
		}
		if cr.ID != 0 || !bytes.Equal(cr.Payload, want) {
			t.Errorf("Accept %q: CheckoutResponse{ID: %d} carries the wrong payload", accept, cr.ID)
		}
	}
	for _, accept := range []string{
		"application/octet-stream",
		"Application/Octet-Stream; q=0.9",
		"application/json;q=0.5, application/octet-stream",
	} {
		resp, body := getCheckout(t, url, "0", accept)
		if ct := resp.Header.Get("Content-Type"); ct != octetStream || !bytes.Equal(body, want) {
			t.Errorf("Accept %q: Content-Type %q, raw body match %v; want the raw form", accept, ct, bytes.Equal(body, want))
		}
	}
}

// TestCheckoutNegotiatedJSONOnlyServer: against a server that ignores
// Accept (simulated by stripping it), Client.Checkout decodes the JSON
// answer and still maps errors to *StatusError.
func TestCheckoutNegotiatedJSONOnlyServer(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	h := NewServer(r).Handler()
	var stripped atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Header.Get("Accept") != "" {
			stripped.Add(1)
			req.Header.Del("Accept")
		}
		h.ServeHTTP(w, req)
	}))
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	payloads := [][]byte{payload(t, 1, 20), nil, payload(t, 2, 25)}
	for i, p := range payloads {
		if _, err := c.Commit(repo.DefaultBranch, p, "json only"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	for v, want := range payloads {
		got, err := c.Checkout(v)
		if err != nil {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Checkout(%d) over JSON differs from the committed payload", v)
		}
	}
	if n := int(stripped.Load()); n != len(payloads) {
		t.Errorf("Client.Checkout sent Accept on %d of %d requests", n, len(payloads))
	}
	if _, err := c.Checkout(99); !IsNotFound(err) {
		t.Errorf("Checkout(99) = %v, want a 404 StatusError", err)
	}
}

// TestCheckoutNegotiatedLyingLength: a raw answer that states a length it
// never sends — far past what the client presizes, and just past what it
// receives — makes Client.Checkout return an error, without allocating
// the stated length.
func TestCheckoutNegotiatedLyingLength(t *testing.T) {
	for _, stated := range []string{strconv.FormatInt(1<<40, 10), "100"} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", octetStream)
			w.Header().Set("Content-Length", stated)
			_, _ = w.Write([]byte("0123456789"))
		}))
		got, err := NewClient(srv.URL).Checkout(0)
		srv.Close()
		if err == nil {
			t.Errorf("Content-Length %s with 10 bytes sent: Checkout = %q, want an error", stated, got)
		}
	}
}
