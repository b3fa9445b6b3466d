package vcs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"versiondb/internal/repo"
)

// Client talks to a Server over HTTP.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:7420").
func NewClient(base string) *Client {
	return &Client{base: base, http: http.DefaultClient}
}

func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("vcs: marshal: %w", err)
	}
	httpResp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("vcs: %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	return decodeResponse(path, httpResp, resp)
}

func (c *Client) get(path string, resp any) error {
	httpResp, err := c.http.Get(c.base + path)
	if err != nil {
		return fmt.Errorf("vcs: %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	return decodeResponse(path, httpResp, resp)
}

// maxDrain bounds how much of a response's unread tail decodeResponse
// reads off before the caller closes the body; a longer tail costs the
// connection instead.
const maxDrain = 64 << 10

// decodeResponse decodes a JSON answer into resp, or a non-2xx answer
// into a *StatusError. Either way it then reads the body to its end, so
// closing it returns the connection to the keep-alive pool: json.Decoder
// stops at the value's last byte and would leave the trailing newline,
// or a chunked body's terminator, unread.
func decodeResponse(path string, httpResp *http.Response, resp any) error {
	defer func() { _, _ = io.CopyN(io.Discard, httpResp.Body, maxDrain) }()
	if httpResp.StatusCode < 200 || httpResp.StatusCode > 299 {
		se := &StatusError{Code: httpResp.StatusCode, Path: path}
		var e ErrorResponse
		if json.NewDecoder(httpResp.Body).Decode(&e) == nil {
			se.Msg = e.Error
		}
		return se
	}
	if resp == nil {
		return nil
	}
	if err := json.NewDecoder(httpResp.Body).Decode(resp); err != nil {
		return fmt.Errorf("vcs: %s: decode: %w", path, err)
	}
	return nil
}

// Commit creates a version on branch and returns its id.
func (c *Client) Commit(branch string, payload []byte, message string) (int, error) {
	return c.commit(url.Values{"branch": {branch}, "message": {message}}, payload)
}

// Merge creates a merge commit of branch's tip and other with the
// client-merged payload.
func (c *Client) Merge(branch string, other int, payload []byte, message string) (int, error) {
	return c.commit(url.Values{"branch": {branch}, "message": {message}, "merge_parent": {strconv.Itoa(other)}}, payload)
}

// commit sends POST /commit in its raw form: the payload is the body,
// sent as octetStream, and the metadata rides in the query string, so
// neither end encodes or decodes base64.
func (c *Client) commit(query url.Values, payload []byte) (int, error) {
	httpResp, err := c.http.Post(c.base+"/commit?"+query.Encode(), octetStream, bytes.NewReader(payload))
	if err != nil {
		return 0, fmt.Errorf("vcs: /commit: %w", err)
	}
	defer httpResp.Body.Close()
	var resp CommitResponse
	err = decodeResponse("/commit", httpResp, &resp)
	return resp.ID, err
}

// Checkout fetches version v's payload. It asks GET /checkout for the raw
// form and reads the body into one buffer of the stated Content-Length
// (see readPayload), so no JSON or base64 is decoded; a server that
// ignores Accept answers JSON, which is decoded as before.
func (c *Client) Checkout(v int) ([]byte, error) {
	path := fmt.Sprintf("/checkout?v=%d", v)
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("vcs: %s: %w", path, err)
	}
	req.Header.Set("Accept", octetStream)
	httpResp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("vcs: %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK || httpResp.Header.Get("Content-Type") != octetStream {
		var resp CheckoutResponse
		if err := decodeResponse(path, httpResp, &resp); err != nil {
			return nil, err
		}
		return resp.Payload, nil
	}
	// The length is -1 when a relay re-framed the body and dropped it.
	payload, err := readPayload(httpResp.Body, httpResp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("vcs: %s: read: %w", path, err)
	}
	return payload, nil
}

// Branch creates a branch at version from.
func (c *Client) Branch(name string, from int) error {
	return c.post("/branch", BranchRequest{Name: name, From: from}, nil)
}

// Log lists all versions.
func (c *Client) Log() ([]repo.VersionInfo, error) {
	var resp LogResponse
	if err := c.get("/log", &resp); err != nil {
		return nil, err
	}
	return resp.Versions, nil
}

// LogTail fetches the primary's metadata-log tail past sequence from —
// the follower side of GET /log?from=. With wait set the server long-polls
// (an empty tail after the poll timeout is a normal answer); ctx bounds
// the whole request, so a canceled follower returns promptly.
func (c *Client) LogTail(ctx context.Context, from uint64, wait bool) (*LogTailResponse, error) {
	path := fmt.Sprintf("/log?from=%d", from)
	if wait {
		path += "&wait=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, fmt.Errorf("vcs: log tail: %w", err)
	}
	httpResp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("vcs: %s: %w", path, err)
	}
	defer httpResp.Body.Close()
	var resp LogTailResponse
	if err := decodeResponse(path, httpResp, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Optimize triggers a server-side storage re-layout and blocks until it
// finishes. The server's copy-on-write swap keeps checkouts unblocked
// meanwhile.
func (c *Client) Optimize(req OptimizeRequest) (*OptimizeResponse, error) {
	var resp OptimizeResponse
	if err := c.post("/optimize", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// OptimizeAsync queues a server-side re-layout as a background job and
// returns its id immediately. Track it with Job, JobWait or Jobs; stop it
// with CancelJob.
func (c *Client) OptimizeAsync(req OptimizeRequest) (string, error) {
	var resp OptimizeAcceptedResponse
	if err := c.post("/optimize?async=1", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// Jobs lists every background job in submission order.
func (c *Client) Jobs() ([]JobInfo, error) {
	var resp JobsResponse
	if err := c.get("/jobs", &resp); err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Job fetches one job's current state.
func (c *Client) Job(id string) (*JobInfo, error) {
	var resp JobInfo
	if err := c.get("/jobs/"+id, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// JobWait blocks server-side until the job reaches a terminal state and
// returns that final snapshot.
func (c *Client) JobWait(id string) (*JobInfo, error) {
	var resp JobInfo
	if err := c.get("/jobs/"+id+"?wait=1", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// CancelJob requests server-side cancellation of a job; it is idempotent
// on already-finished jobs and returns the job's snapshot at cancel time.
func (c *Client) CancelJob(id string) (*JobInfo, error) {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/jobs/"+id, nil)
	if err != nil {
		return nil, fmt.Errorf("vcs: cancel job: %w", err)
	}
	httpResp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("vcs: /jobs/%s: %w", id, err)
	}
	defer httpResp.Body.Close()
	var resp JobInfo
	if err := decodeResponse("/jobs/"+id, httpResp, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GC asks the server to collect orphaned blobs.
func (c *Client) GC() (*GCResponse, error) {
	var resp GCResponse
	if err := c.post("/gc", struct{}{}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Stats fetches repository statistics.
func (c *Client) Stats() (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.get("/stats", &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
