package vcs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"versiondb/internal/dataset"
	"versiondb/internal/repo"
	"versiondb/internal/solve"
)

func newClientServer(t *testing.T) *Client {
	t.Helper()
	c, _ := newServerURL(t)
	return c
}

func newServerURL(t *testing.T) (*Client, string) {
	t.Helper()
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), srv.URL
}

func payload(t testing.TB, seed int64, rows int) []byte {
	t.Helper()
	tb := dataset.Random(rand.New(rand.NewSource(seed)), rows, 4)
	b, err := tb.EncodeCSV()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCommitCheckoutOverHTTP(t *testing.T) {
	c := newClientServer(t)
	p0 := payload(t, 1, 30)
	id, err := c.Commit(repo.DefaultBranch, p0, "root")
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if id != 0 {
		t.Fatalf("id = %d", id)
	}
	got, err := c.Checkout(0)
	if err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if !bytes.Equal(got, p0) {
		t.Errorf("payload mismatch over HTTP")
	}
}

// TestEmptyPayloadOverHTTP: an empty version round-trips through
// GET /checkout, cold and then cached.
func TestEmptyPayloadOverHTTP(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	if _, err := c.Commit(repo.DefaultBranch, payload(t, 1, 3), "root"); err != nil {
		t.Fatalf("Commit root: %v", err)
	}
	v, err := c.Commit(repo.DefaultBranch, nil, "empty")
	if err != nil {
		t.Fatalf("Commit empty: %v", err)
	}
	r.EnableCacheBytes(1 << 20) // after the commits, so the first pass is cold
	for pass := 0; pass < 2; pass++ {
		got, err := c.Checkout(v)
		if err != nil {
			t.Fatalf("pass %d: Checkout(%d): %v", pass, v, err)
		}
		if len(got) != 0 {
			t.Fatalf("pass %d: Checkout(%d) = %q, want empty", pass, v, got)
		}
	}
	if r.CacheMetrics().Hits == 0 {
		t.Error("second checkout of the empty version missed the cache")
	}
}

func TestBranchMergeLogOverHTTP(t *testing.T) {
	c := newClientServer(t)
	if _, err := c.Commit(repo.DefaultBranch, payload(t, 2, 30), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if err := c.Branch("side", 0); err != nil {
		t.Fatalf("Branch: %v", err)
	}
	sid, err := c.Commit("side", payload(t, 3, 31), "side work")
	if err != nil {
		t.Fatalf("Commit side: %v", err)
	}
	if _, err := c.Commit(repo.DefaultBranch, payload(t, 4, 32), "main work"); err != nil {
		t.Fatalf("Commit main: %v", err)
	}
	mid, err := c.Merge(repo.DefaultBranch, sid, payload(t, 5, 33), "merge")
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	log, err := c.Log()
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	if len(log) != 4 {
		t.Fatalf("log has %d entries", len(log))
	}
	if len(log[mid].Parents) != 2 {
		t.Errorf("merge commit parents = %v", log[mid].Parents)
	}
}

func TestOptimizeAndStatsOverHTTP(t *testing.T) {
	c := newClientServer(t)
	rng := rand.New(rand.NewSource(6))
	tb := dataset.Random(rng, 50, 5)
	cur := tb
	for i := 0; i < 6; i++ {
		b, err := cur.EncodeCSV()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(repo.DefaultBranch, b, "v"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
		s := dataset.RandomScript(rng, cur.NumRows(), cur.NumCols(), 2)
		if cur, err = s.Apply(cur); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Optimize(OptimizeRequest{Solver: "lmg", BudgetFactor: 1.3, RevealHops: 4})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if resp.Algorithm != "LMG" {
		t.Errorf("algorithm = %q, want LMG", resp.Algorithm)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Versions != 6 {
		t.Errorf("stats versions = %d", st.Versions)
	}
	if st.StoredBytes <= 0 || st.LogicalBytes <= 0 {
		t.Errorf("stats bytes = %+v", st)
	}
	// Content still intact.
	if _, err := c.Checkout(5); err != nil {
		t.Errorf("Checkout after optimize: %v", err)
	}
}

// TestServingStatsOverHTTP: the serving-path telemetry — cache occupancy
// in bytes, hit ratio, evictions, backend blob reads — reaches the wire,
// so a byte budget can be tuned against a live server.
func TestServingStatsOverHTTP(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	srv := httptest.NewServer(NewServer(r).Handler())
	t.Cleanup(srv.Close)
	c := NewClient(srv.URL)
	for i := 0; i < 4; i++ {
		if _, err := c.Commit(repo.DefaultBranch, payload(t, int64(20+i), 30+i), "v"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	// Installed after the commits, which would have admitted what they
	// wrote, so the first checkout is cold.
	r.EnableCacheBytes(1 << 20)
	if _, err := c.Checkout(3); err != nil {
		t.Fatalf("Checkout: %v", err)
	}
	if _, err := c.Checkout(3); err != nil { // hot: drives the hit ratio up
		t.Fatalf("Checkout: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.CacheBudgetBytes != 1<<20 {
		t.Errorf("cache_budget_bytes = %d, want %d", st.CacheBudgetBytes, 1<<20)
	}
	if st.CacheEntries == 0 || st.CacheBytes == 0 {
		t.Errorf("cache occupancy missing from stats: %+v", st)
	}
	if st.CacheBytes > st.CacheBudgetBytes {
		t.Errorf("cache_bytes %d exceeds budget %d", st.CacheBytes, st.CacheBudgetBytes)
	}
	if st.CacheHitRatio <= 0 || st.CacheHitRatio >= 1 {
		t.Errorf("cache_hit_ratio = %v, want in (0,1) after a hot repeat", st.CacheHitRatio)
	}
	if st.BlobReads <= 0 {
		t.Errorf("blob_reads = %d, want > 0 after cold checkouts", st.BlobReads)
	}
}

func TestServerErrorsSurfaceToClient(t *testing.T) {
	c := newClientServer(t)
	if _, err := c.Checkout(0); err == nil {
		t.Errorf("Checkout on empty repo succeeded")
	}
	if err := c.Branch("x", 99); err == nil {
		t.Errorf("Branch at missing version succeeded")
	}
	if _, err := c.Commit("ghost", payload(t, 7, 10), "m"); err == nil {
		// First commit creates the branch only on a fresh repo; after that
		// unknown branches fail. Fresh repo: the commit above IS the first,
		// so it succeeds — exercise the failure on a second unknown branch.
		if _, err2 := c.Commit("ghost2", payload(t, 8, 10), "m"); err2 == nil {
			t.Errorf("commit to unknown branch succeeded")
		}
	}
	if _, err := c.Optimize(OptimizeRequest{Solver: "bogus"}); err == nil {
		t.Errorf("bogus solver accepted")
	}
}

// wantStatus asserts the raw HTTP status of a request against the server.
func wantStatus(t *testing.T, method, url, body string, want int) {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if method == http.MethodGet {
		resp, err = http.Get(url)
	} else {
		resp, err = http.Post(url, "application/json", strings.NewReader(body))
	}
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		t.Errorf("%s %s = %d, want %d", method, url, resp.StatusCode, want)
	}
}

func TestHTTPStatusCodes(t *testing.T) {
	c, base := newServerURL(t)
	if _, err := c.Commit(repo.DefaultBranch, payload(t, 20, 20), "root"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Missing resources are 404, not blanket 500.
	wantStatus(t, http.MethodGet, base+"/checkout?v=99", "", http.StatusNotFound)
	wantStatus(t, http.MethodGet, base+"/checkout?v=-1", "", http.StatusNotFound)
	wantStatus(t, http.MethodPost, base+"/branch", `{"name":"b","from":42}`, http.StatusNotFound)
	wantStatus(t, http.MethodPost, base+"/commit", `{"branch":"ghost","merge_parent":-1}`, http.StatusNotFound)
	// Conflicts are 409.
	wantStatus(t, http.MethodPost, base+"/branch", `{"name":"dup","from":0}`, http.StatusOK)
	wantStatus(t, http.MethodPost, base+"/branch", `{"name":"dup","from":0}`, http.StatusConflict)
	// Merging the branch tip into itself is a client conflict, not a 500.
	wantStatus(t, http.MethodPost, base+"/commit", `{"branch":"master","merge_parent":0}`, http.StatusConflict)
	// Malformed requests are 400.
	wantStatus(t, http.MethodGet, base+"/checkout?v=abc", "", http.StatusBadRequest)
	wantStatus(t, http.MethodPost, base+"/commit", `{broken`, http.StatusBadRequest)
	wantStatus(t, http.MethodPost, base+"/optimize", `{"solver":"bogus"}`, http.StatusBadRequest)
}

func TestOptimizeEmptyRepoConflicts(t *testing.T) {
	_, base := newServerURL(t)
	wantStatus(t, http.MethodPost, base+"/optimize", `{}`, http.StatusConflict)
}

// TestOptimizeBySolverOverHTTP exercises the registry path of /optimize:
// naming a solver directly, echoing it in the response, and the normalized
// error statuses (400 unknown solver, 409 infeasible bound).
func TestOptimizeBySolverOverHTTP(t *testing.T) {
	c, base := newServerURL(t)
	for i := 0; i < 5; i++ {
		if _, err := c.Commit(repo.DefaultBranch, payload(t, 30+int64(i), 30+i), "v"); err != nil {
			t.Fatalf("Commit %d: %v", i, err)
		}
	}
	for solver, algorithm := range map[string]string{
		"mst": "MST/MCA", "spt": "SPT", "p4": "MP + binary search",
	} {
		resp, err := c.Optimize(OptimizeRequest{Solver: solver, RevealHops: 3})
		if err != nil {
			t.Fatalf("Optimize(%s): %v", solver, err)
		}
		if resp.Solver != solver {
			t.Errorf("response solver = %q, want %q", resp.Solver, solver)
		}
		if info, err := solve.Describe(solver); err != nil || info.Algorithm != algorithm {
			t.Errorf("Describe(%s) = %+v, %v", solver, info, err)
		}
	}
	// Unknown solver names are client errors, not 500s.
	wantStatus(t, http.MethodPost, base+"/optimize", `{"solver":"simplex"}`, http.StatusBadRequest)
	// Infeasible bounds are conflicts: θ=1 byte is below any version size.
	wantStatus(t, http.MethodPost, base+"/optimize", `{"solver":"mp","theta":1}`, http.StatusConflict)
}

// TestOptimizeClientDisconnectCancels verifies the handler actually threads
// r.Context() into the solve: invoking handleOptimize with a canceled
// request context must execute the handler, surface solve.ErrCanceled, and
// map it to 499 — then the repository keeps serving intact bytes. (Driving
// the handler directly, rather than canceling a client-side HTTP call,
// guarantees the server-side path runs; a canceled client call never leaves
// the transport.)
func TestOptimizeClientDisconnectCancels(t *testing.T) {
	r, err := repo.Init(t.TempDir())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	srv := NewServer(r)
	want := payload(t, 40, 60)
	if _, err := r.Commit(repo.DefaultBranch, want, "v0"); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // simulates the net/http server canceling r.Context() on disconnect
	req := httptest.NewRequest(http.MethodPost, "/optimize",
		strings.NewReader(`{"solver":"lmg"}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Errorf("canceled /optimize status = %d, want %d (body %s)", rec.Code, StatusClientClosedRequest, rec.Body)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, solve.ErrCanceled.Error()) {
		t.Errorf("canceled /optimize body = %q, want ErrCanceled text", rec.Body)
	}
	// The write lock must be released and content intact.
	got, err := r.Checkout(0)
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("repository unusable after canceled optimize: %v", err)
	}
}

func TestClientSurfacesStatusError(t *testing.T) {
	c := newClientServer(t)
	_, err := c.Checkout(7)
	if err == nil {
		t.Fatalf("Checkout on empty repo succeeded")
	}
	var se *StatusError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a StatusError", err)
	}
	if se.Code != http.StatusNotFound {
		t.Errorf("Code = %d, want 404", se.Code)
	}
	if !IsNotFound(err) {
		t.Errorf("IsNotFound = false for %v", err)
	}
	if IsNotFound(errors.New("other")) {
		t.Errorf("IsNotFound = true for unrelated error")
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := NewClient("http://127.0.0.1:1") // nothing listens here
	if _, err := c.Log(); err == nil {
		t.Errorf("Log against dead server succeeded")
	}
	if _, err := c.Checkout(0); err == nil {
		t.Errorf("Checkout against dead server succeeded")
	}
}
