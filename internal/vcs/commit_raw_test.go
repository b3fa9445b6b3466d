package vcs

// Tests for POST /commit's raw form: Client.Commit and Client.Merge send
// the payload as an application/octet-stream body with the metadata in
// the query string; a JSON CommitRequest stays accepted and must build
// the same repository.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"versiondb/internal/repo"
	"versiondb/internal/store"
)

// commitFunc commits payload to branch, as a merge with mergeParent when
// that is ≥ 0, and returns the new version id.
type commitFunc func(branch string, mergeParent int, payload []byte, message string) (int, error)

// jsonCommit posts JSON CommitRequests to the server at base.
func jsonCommit(base string) commitFunc {
	return func(branch string, mergeParent int, payload []byte, message string) (int, error) {
		body, err := json.Marshal(CommitRequest{Branch: branch, Message: message, Payload: payload, MergeParent: mergeParent})
		if err != nil {
			return 0, err
		}
		resp, err := http.Post(base+"/commit", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		var cr CommitResponse
		err = decodeResponse("/commit", resp, &cr)
		return cr.ID, err
	}
}

// rawCommit commits through Client.Commit and Client.Merge.
func rawCommit(c *Client) commitFunc {
	return func(branch string, mergeParent int, payload []byte, message string) (int, error) {
		if mergeParent >= 0 {
			return c.Merge(branch, mergeParent, payload, message)
		}
		return c.Commit(branch, payload, message)
	}
}

// commitEntry is the part of a commit log record the comparison reads.
type commitEntry struct {
	Version repo.VersionInfo `json:"version"`
	Entry   store.Entry      `json:"entry"`
}

// commitEntries returns the commit records of r's metadata log in order.
func commitEntries(t *testing.T, r *repo.Repo) []commitEntry {
	t.Helper()
	view, err := r.LogTail(context.Background(), 0, false)
	if err != nil {
		t.Fatalf("LogTail: %v", err)
	}
	if view.Snapshot != nil {
		t.Fatal("LogTail: the log was compacted; the script is too long to compare records")
	}
	var out []commitEntry
	for _, rec := range view.Records {
		if rec.Type != 1 { // the commit record's type, fixed by the on-disk format
			continue
		}
		var ce commitEntry
		if err := json.Unmarshal(rec.Data, &ce); err != nil {
			t.Fatalf("commit record %d: %v", rec.Seq, err)
		}
		out = append(out, ce)
	}
	return out
}

// TestCommitRawMatchesJSON: one script of commits, a branch and a merge,
// sent once in the raw form and once as JSON CommitRequests, builds two
// repositories with the same ids, hashes, checkout bytes, version
// metadata and layout entries. The script covers an empty payload, one
// with no trailing newline, non-UTF-8 bytes, and messages that need
// query-string escaping or are not UTF-8.
func TestCommitRawMatchesJSON(t *testing.T) {
	root := payload(t, 1, 40)
	edited := append(bytes.Clone(root), "extra,row,1,2\n"...)
	binary := append(bytes.Clone(root), 0xff, 0xfe, 0x00, '\n', 0x80, 0xc3, 0x28, '\n')
	type step struct {
		branch      string
		mergeParent int // ≥ 0: merge of the branch tip and this version
		payload     []byte
		message     string
	}
	script := []step{
		{repo.DefaultBranch, -1, root, "root"},
		{repo.DefaultBranch, -1, edited, "nightly & co = 100% ?x=#"},
		{"dev", -1, binary, "non-UTF-8 payload, ünïcode message"},
		{repo.DefaultBranch, -1, nil, "not UTF-8: \xff\xfe\xc3("},
		{repo.DefaultBranch, -1, []byte("a,b\n1,2"), "no trailing\nnewline ✓"},
		{"dev", -1, append(bytes.Clone(binary), "more\n"...), "dev+"},
		{repo.DefaultBranch, 5, append(bytes.Clone(edited), "merged\n"...), "merge dev"},
	}
	run := func(c *Client, commit commitFunc) []int {
		t.Helper()
		var ids []int
		for i, st := range script {
			if i == 2 {
				if err := c.Branch("dev", 1); err != nil {
					t.Fatalf("Branch: %v", err)
				}
			}
			id, err := commit(st.branch, st.mergeParent, st.payload, st.message)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			ids = append(ids, id)
		}
		return ids
	}
	newSide := func() (*repo.Repo, *Client, string) {
		r, err := repo.Init(t.TempDir())
		if err != nil {
			t.Fatalf("Init: %v", err)
		}
		srv := httptest.NewServer(NewServer(r).Handler())
		t.Cleanup(srv.Close)
		return r, NewClient(srv.URL), srv.URL
	}
	rawRepo, rawClient, _ := newSide()
	jsonRepo, jsonClient, jsonURL := newSide()
	rawIDs := run(rawClient, rawCommit(rawClient))
	jsonIDs := run(jsonClient, jsonCommit(jsonURL))

	if fmt.Sprint(rawIDs) != fmt.Sprint(jsonIDs) {
		t.Fatalf("ids: raw %v, JSON %v", rawIDs, jsonIDs)
	}
	for i, v := range rawIDs {
		rawHash, err1 := rawRepo.VersionHash(v)
		jsonHash, err2 := jsonRepo.VersionHash(v)
		if err1 != nil || err2 != nil || rawHash != jsonHash {
			t.Errorf("v%d: VersionHash raw %q (%v), JSON %q (%v)", v, rawHash, err1, jsonHash, err2)
		}
		for _, side := range []struct {
			name string
			r    *repo.Repo
		}{{"raw", rawRepo}, {"JSON", jsonRepo}} {
			got, err := side.r.Checkout(v)
			if err != nil || !bytes.Equal(got, script[i].payload) {
				t.Errorf("%s v%d: checkout %q (%v), want the committed %q", side.name, v, got, err, script[i].payload)
			}
		}
	}
	rawEntries, jsonEntries := commitEntries(t, rawRepo), commitEntries(t, jsonRepo)
	if len(rawEntries) != len(script) || len(jsonEntries) != len(script) {
		t.Fatalf("commit records: raw %d, JSON %d, want %d", len(rawEntries), len(jsonEntries), len(script))
	}
	for i := range rawEntries {
		rv, jv := rawEntries[i].Version, jsonEntries[i].Version
		if rv.ID != jv.ID || fmt.Sprint(rv.Parents) != fmt.Sprint(jv.Parents) || rv.Message != jv.Message ||
			rv.Branch != jv.Branch || rv.Size != jv.Size || rv.Hash != jv.Hash {
			t.Errorf("record %d: version raw %+v, JSON %+v", i, rv, jv)
		}
		// Both forms store what a JSON string decodes to.
		if want := string([]rune(script[i].message)); rv.Message != want {
			t.Errorf("record %d: message %q, want %q", i, rv.Message, want)
		}
		if live := rawRepo.Log()[i].Message; live != rv.Message {
			t.Errorf("v%d: served message %q, persisted %q", i, live, rv.Message)
		}
		if rawEntries[i].Entry != jsonEntries[i].Entry {
			t.Errorf("record %d: layout entry raw %+v, JSON %+v", i, rawEntries[i].Entry, jsonEntries[i].Entry)
		}
	}
	if rv := rawEntries[len(script)-1].Version; len(rv.Parents) != 2 {
		t.Errorf("the merge has parents %v, want two", rv.Parents)
	}
}

// postRaw sends a raw-form POST /commit with the given query string and
// Content-Type, and returns the response with its body read.
func postRaw(t *testing.T, base, query, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/commit?"+query, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /commit?%s: %v", query, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// wantErrorResponse asserts a JSON ErrorResponse with the given status.
func wantErrorResponse(t *testing.T, what string, resp *http.Response, body []byte, code int) {
	t.Helper()
	if resp.StatusCode != code {
		t.Errorf("%s: status %d, want %d", what, resp.StatusCode, code)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", what, ct)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("%s: body %q is not an ErrorResponse (%v)", what, body, err)
	}
}

// TestCommitRawErrors: the raw form answers errors as JSON
// ErrorResponses with the JSON form's statuses, and a Content-Type with
// parameters or other letter case still selects it.
func TestCommitRawErrors(t *testing.T) {
	shared := store.NewMemStore()
	primary, err := repo.InitBackend(shared)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	psrv := httptest.NewServer(NewServer(primary).Handler())
	t.Cleanup(psrv.Close)
	c := NewClient(psrv.URL)
	if _, err := c.Commit(repo.DefaultBranch, []byte("root\n"), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if _, err := c.Commit("ghost", []byte("x\n"), "m"); !IsNotFound(err) {
		t.Errorf("Client.Commit to an unknown branch = %v, want a 404 StatusError", err)
	}
	resp, body := postRaw(t, psrv.URL, "branch=ghost", octetStream, []byte("x\n"))
	wantErrorResponse(t, "unknown branch", resp, body, http.StatusNotFound)
	resp, body = postRaw(t, psrv.URL, "branch=master&merge_parent=abc", octetStream, []byte("x\n"))
	wantErrorResponse(t, "merge_parent=abc", resp, body, http.StatusBadRequest)
	resp, body = postRaw(t, psrv.URL, "branch=master&message=ct", "Application/Octet-Stream; charset=binary", []byte("x\n"))
	var cr CommitResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &cr) != nil || cr.ID != 1 {
		t.Errorf("Content-Type with parameters: status %d, body %q; want 200 {\"id\":1}", resp.StatusCode, body)
	}
	if got, err := primary.Checkout(1); err != nil || string(got) != "x\n" {
		t.Errorf("Checkout(1) = %q (%v), want the raw body", got, err)
	}

	replica, err := repo.OpenReplica(shared)
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	rsrv := httptest.NewServer(NewServer(replica).Handler())
	t.Cleanup(rsrv.Close)
	resp, body = postRaw(t, rsrv.URL, "branch=master&message=x", octetStream, []byte("x\n"))
	wantErrorResponse(t, "commit to a replica", resp, body, http.StatusForbidden)
	if !strings.Contains(string(body), repo.ErrReplica.Error()) {
		t.Errorf("replica answer %q does not name %q", body, repo.ErrReplica)
	}
}

// TestCommitRawLyingContentLength: a raw commit that states a length it
// never sends — far past what the server presizes, and just past what it
// receives — is answered 400 without allocating the stated length, and
// the server keeps serving.
func TestCommitRawLyingContentLength(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	if _, err := c.Commit(repo.DefaultBranch, []byte("root\n"), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for _, stated := range []int64{1 << 40, 100} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		_, err = fmt.Fprintf(conn, "POST /commit?branch=master HTTP/1.1\r\nHost: test\r\n"+
			"Content-Type: %s\r\nContent-Length: %d\r\n\r\n0123456789", octetStream, stated)
		if err != nil {
			t.Fatalf("write request: %v", err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatalf("CloseWrite: %v", err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("Content-Length %d: read response: %v", stated, err)
		}
		body, _ := io.ReadAll(resp.Body)
		wantErrorResponse(t, fmt.Sprintf("Content-Length %d with 10 bytes sent", stated), resp, body, http.StatusBadRequest)
		conn.Close()
	}
	if n := r.NumVersions(); n != 1 {
		t.Errorf("%d versions after the short bodies, want 1", n)
	}
	if id, err := c.Commit(repo.DefaultBranch, []byte("next\n"), "after"); err != nil || id != 1 {
		t.Errorf("Commit after the short bodies = %d, %v; want 1", id, err)
	}
}

// TestClientKeepAliveJSON: sequential JSON calls, error answers
// included, share one connection even when a body's end arrives after
// its JSON value. The handler is wrapped to flush its answer, which makes
// the body chunked, and to hold back the terminating chunk a moment, so
// the decoder returns before the body's end can be read.
func TestClientKeepAliveJSON(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	h := NewServer(r).Handler()
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h.ServeHTTP(w, req)
		w.(http.Flusher).Flush()
		time.Sleep(5 * time.Millisecond) // the terminator arrives late
	}))
	var conns atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	for i := 0; i < 3; i++ {
		if _, err := c.Commit(repo.DefaultBranch, payload(t, int64(i), 5), "keep-alive"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Stats(); err != nil {
			t.Fatalf("Stats: %v", err)
		}
		if versions, err := c.Log(); err != nil || len(versions) != 3 {
			t.Fatalf("Log = %d versions, %v; want 3", len(versions), err)
		}
		if _, err := c.Jobs(); err != nil {
			t.Fatalf("Jobs: %v", err)
		}
		if _, err := c.Checkout(99); !IsNotFound(err) {
			t.Fatalf("Checkout(99) = %v, want a 404 StatusError", err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections for 23 sequential calls, want 1", n)
	}
}
