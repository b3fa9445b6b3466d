package replication

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/vcs"
)

// fleet is one primary plus N replicas over a shared in-memory backend,
// fronted by a router — the whole serving topology in-process.
type fleet struct {
	shared   *store.MemStore
	primary  *repo.Repo
	primaryS *httptest.Server
	replicas []*repo.Repo
	reps     []*httptest.Server
	router   *Router
	proxy    *httptest.Server
}

func newFleet(t *testing.T, nReplicas int, runFollowers bool) *fleet {
	t.Helper()
	fl := &fleet{shared: store.NewMemStore()}
	var err error
	if fl.primary, err = repo.InitBackend(fl.shared); err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	psrv := vcs.NewServer(fl.primary)
	t.Cleanup(psrv.Close)
	fl.primaryS = httptest.NewServer(psrv.Handler())
	t.Cleanup(fl.primaryS.Close)

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var urls []string
	for i := 0; i < nReplicas; i++ {
		rep, err := repo.OpenReplica(fl.shared)
		if err != nil {
			t.Fatalf("OpenReplica: %v", err)
		}
		rep.EnableCacheBytes(1 << 20)
		f := NewFollower(rep, vcs.NewClient(fl.primaryS.URL))
		if runFollowers {
			go func() { _ = f.Run(ctx) }()
		} else if _, err := f.Sync(ctx, false); err != nil {
			t.Fatalf("replica %d sync: %v", i, err)
		}
		rsrv := vcs.NewServer(rep, vcs.WithReplicaStatus(f.Status))
		t.Cleanup(rsrv.Close)
		ts := httptest.NewServer(rsrv.Handler())
		t.Cleanup(ts.Close)
		fl.replicas = append(fl.replicas, rep)
		fl.reps = append(fl.reps, ts)
		urls = append(urls, ts.URL)
	}

	if fl.router, err = NewRouter(fl.primaryS.URL, urls); err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if runFollowers {
		go func() { _ = fl.router.Run(ctx) }()
	}
	fl.proxy = httptest.NewServer(fl.router.Handler())
	t.Cleanup(fl.proxy.Close)
	return fl
}

// TestMultiReplicaE2E is the acceptance e2e: 1 primary + 2 replicas, all
// followers running. A commit through the proxy is immediately readable
// through the proxy (read-your-writes via the primary), and both replicas
// converge to serving it directly (bounded staleness). Run with -race.
func TestMultiReplicaE2E(t *testing.T) {
	fl := newFleet(t, 2, true)
	c := vcs.NewClient(fl.proxy.URL)

	var ids []int
	var payloads [][]byte
	for i := 0; i < 6; i++ {
		p := []byte(fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte("x"), 512)))
		id, err := c.Commit(repo.DefaultBranch, p, fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatalf("commit %d through proxy: %v", i, err)
		}
		// Read-your-writes: the commit was just acknowledged; the proxy
		// must serve it now, however stale the replicas are.
		got, err := c.Checkout(id)
		if err != nil {
			t.Fatalf("checkout %d through proxy right after commit: %v", id, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("read-your-writes returned wrong payload for %d", id)
		}
		ids = append(ids, id)
		payloads = append(payloads, p)
	}

	// Bounded staleness: both replicas converge to serving the last
	// version directly (not through the proxy).
	last := ids[len(ids)-1]
	for i, ts := range fl.reps {
		rc := vcs.NewClient(ts.URL)
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err := rc.Checkout(last)
			if err == nil {
				if !bytes.Equal(got, payloads[len(payloads)-1]) {
					t.Fatalf("replica %d serves wrong payload for %d", i, last)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d did not converge to version %d: %v", i, last, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Staleness observability: replicas report a replica stats section,
	// the primary omits it.
	for i, ts := range fl.reps {
		st, err := vcs.NewClient(ts.URL).Stats()
		if err != nil {
			t.Fatalf("replica %d stats: %v", i, err)
		}
		if st.Replica == nil {
			t.Fatalf("replica %d stats has no replica section", i)
		}
		if st.Replica.AppliedOffset == 0 {
			t.Fatalf("replica %d reports applied_offset 0 after convergence", i)
		}
		if st.Replica.LastApplyUnix == 0 {
			t.Fatalf("replica %d reports last_apply_unix 0 after convergence", i)
		}
	}
	pst, err := vcs.NewClient(fl.primaryS.URL).Stats()
	if err != nil {
		t.Fatalf("primary stats: %v", err)
	}
	if pst.Replica != nil {
		t.Fatalf("primary stats carries a replica section: %+v", pst.Replica)
	}

	// Writes against a replica are rejected as read-only (403).
	if _, err := vcs.NewClient(fl.reps[0].URL).Commit(repo.DefaultBranch, []byte("nope"), "x"); err == nil {
		t.Fatal("replica accepted a commit")
	}
	// A replica keeps no log of its own, so it refuses log-tail reads too:
	// followers tail the primary.
	if _, err := vcs.NewClient(fl.reps[0].URL).LogTail(context.Background(), 0, false); err == nil || !strings.Contains(err.Error(), "(403)") {
		t.Fatalf("replica log tail err = %v, want a 403", err)
	}
}

// TestRouterFallbackToPrimary: when the routing view knows a version but
// the owning replica is still behind, the proxy retries the checkout
// against the primary instead of surfacing the replica's 404.
func TestRouterFallbackToPrimary(t *testing.T) {
	fl := newFleet(t, 2, false) // followers NOT running: replicas stay stale
	c := vcs.NewClient(fl.proxy.URL)

	id, err := c.Commit(repo.DefaultBranch, []byte("fallback-payload"), "c")
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	// Catch the routing view up so the checkout routes to a replica —
	// which has not applied the commit and answers 404.
	if err := fl.router.Sync(context.Background()); err != nil {
		t.Fatalf("router sync: %v", err)
	}
	got, err := c.Checkout(id)
	if err != nil {
		t.Fatalf("checkout through proxy with stale replicas: %v", err)
	}
	if string(got) != "fallback-payload" {
		t.Fatalf("fallback returned wrong payload: %q", got)
	}
	_, replica, fallbacks := fl.router.RouteCounts()
	if replica == 0 || fallbacks == 0 {
		t.Fatalf("expected a replica route with a primary fallback, got replica=%d fallbacks=%d",
			replica, fallbacks)
	}
}

// TestCheckoutNegotiatedThroughRouter: the proxy relays GET /checkout's
// raw form. The replica sees the client's Accept header, and the bytes
// match a checkout made directly against the primary.
func TestCheckoutNegotiatedThroughRouter(t *testing.T) {
	ctx := context.Background()
	shared := store.NewMemStore()
	primary, err := repo.InitBackend(shared)
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	psrv := vcs.NewServer(primary)
	t.Cleanup(psrv.Close)
	pts := httptest.NewServer(psrv.Handler())
	t.Cleanup(pts.Close)
	direct := vcs.NewClient(pts.URL)
	payloads := [][]byte{[]byte("root\n"), bytes.Repeat([]byte("row,1,2,3\n"), 64), nil}
	for i, p := range payloads {
		if _, err := direct.Commit(repo.DefaultBranch, p, fmt.Sprintf("c%d", i)); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}

	rep, err := repo.OpenReplica(shared)
	if err != nil {
		t.Fatalf("OpenReplica: %v", err)
	}
	if _, err := NewFollower(rep, direct).Sync(ctx, false); err != nil {
		t.Fatalf("replica sync: %v", err)
	}
	rsrv := vcs.NewServer(rep)
	t.Cleanup(rsrv.Close)
	var rawAccepts atomic.Int32
	rh := rsrv.Handler()
	rts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/checkout" && r.Header.Get("Accept") == "application/octet-stream" {
			rawAccepts.Add(1)
		}
		rh.ServeHTTP(w, r)
	}))
	t.Cleanup(rts.Close)

	router, err := NewRouter(pts.URL, []string{rts.URL})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	if err := router.Sync(ctx); err != nil {
		t.Fatalf("router sync: %v", err)
	}
	proxy := httptest.NewServer(router.Handler())
	t.Cleanup(proxy.Close)
	c := vcs.NewClient(proxy.URL)
	for id, want := range payloads {
		got, err := c.Checkout(id)
		if err != nil {
			t.Fatalf("checkout %d through the proxy: %v", id, err)
		}
		fromPrimary, err := direct.Checkout(id)
		if err != nil {
			t.Fatalf("checkout %d from the primary: %v", id, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, fromPrimary) {
			t.Fatalf("checkout %d: proxy and primary disagree with the committed payload", id)
		}
	}
	// The relayed response keeps the raw form's framing.
	req, err := http.NewRequest(http.MethodGet, proxy.URL+"/checkout?v=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/octet-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("raw GET through the proxy: %v", err)
	}
	resp.Body.Close()
	if ct, n := resp.Header.Get("Content-Type"), resp.ContentLength; ct != "application/octet-stream" || n != int64(len(payloads[1])) {
		t.Errorf("proxied raw checkout: Content-Type %q, length %d; want application/octet-stream, %d", ct, n, len(payloads[1]))
	}
	if _, replica, fallbacks := router.RouteCounts(); replica != int64(len(payloads))+1 || fallbacks != 0 {
		t.Errorf("routes: replica=%d fallbacks=%d, want %d replica routes and no fallback", replica, fallbacks, len(payloads)+1)
	}
	if n := int(rawAccepts.Load()); n != len(payloads)+1 {
		t.Errorf("replica saw Accept: application/octet-stream on %d of %d checkouts", n, len(payloads)+1)
	}
}

// TestCommitRawThroughRouter: the proxy relays POST /commit's raw form to
// the primary with its query string, Content-Type and Content-Length
// intact, for a plain commit and a merge alike.
func TestCommitRawThroughRouter(t *testing.T) {
	primary, err := repo.InitBackend(store.NewMemStore())
	if err != nil {
		t.Fatalf("InitBackend: %v", err)
	}
	psrv := vcs.NewServer(primary)
	t.Cleanup(psrv.Close)
	type seen struct {
		query, contentType string
		length             int64
	}
	var (
		mu    sync.Mutex
		seens []seen
	)
	ph := psrv.Handler()
	pts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/commit" {
			mu.Lock()
			seens = append(seens, seen{r.URL.RawQuery, r.Header.Get("Content-Type"), r.ContentLength})
			mu.Unlock()
		}
		ph.ServeHTTP(w, r)
	}))
	t.Cleanup(pts.Close)
	router, err := NewRouter(pts.URL, nil)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	proxy := httptest.NewServer(router.Handler())
	t.Cleanup(proxy.Close)

	c := vcs.NewClient(proxy.URL)
	payloads := [][]byte{[]byte("root\n"), []byte("side\xff\n"), []byte("merged, no newline")}
	if _, err := c.Commit(repo.DefaultBranch, payloads[0], "root & co"); err != nil {
		t.Fatalf("commit through the proxy: %v", err)
	}
	if err := c.Branch("side", 0); err != nil {
		t.Fatalf("branch through the proxy: %v", err)
	}
	if _, err := c.Commit("side", payloads[1], "side"); err != nil {
		t.Fatalf("commit to side through the proxy: %v", err)
	}
	id, err := c.Merge(repo.DefaultBranch, 1, payloads[2], "merge side")
	if err != nil || id != 2 {
		t.Fatalf("merge through the proxy = %d, %v; want 2", id, err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []seen{
		{"branch=master&message=root+%26+co", "application/octet-stream", int64(len(payloads[0]))},
		{"branch=side&message=side", "application/octet-stream", int64(len(payloads[1]))},
		{"branch=master&merge_parent=1&message=merge+side", "application/octet-stream", int64(len(payloads[2]))},
	}
	if fmt.Sprint(seens) != fmt.Sprint(want) {
		t.Errorf("primary saw %+v, want %+v", seens, want)
	}
	for v, p := range payloads {
		got, err := primary.Checkout(v)
		if err != nil || !bytes.Equal(got, p) {
			t.Errorf("primary Checkout(%d) = %q (%v), want %q", v, got, err, p)
		}
	}
	log := primary.Log()
	if log[0].Message != "root & co" || log[2].Branch != repo.DefaultBranch || len(log[2].Parents) != 2 {
		t.Errorf("primary log %+v: metadata did not survive the proxy", log)
	}
}

// TestRingDistributionAndStability: every node owns a meaningful share of
// the keyspace, and removing one node only remaps the keys it owned.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"http://r1", "http://r2", "http://r3", "http://r4"}
	r := newRing(nodes)
	const keys = 10000
	counts := map[string]int{}
	owner := make([]string, keys)
	for k := 0; k < keys; k++ {
		n := r.pick(rootKey(k))
		counts[n]++
		owner[k] = n
	}
	for _, n := range nodes {
		if counts[n] < keys/len(nodes)/3 {
			t.Errorf("node %s owns only %d of %d keys — ring badly imbalanced", n, counts[n], keys)
		}
	}
	// Drop r4: keys owned by the others must not move.
	r3 := newRing(nodes[:3])
	moved := 0
	for k := 0; k < keys; k++ {
		if owner[k] == "http://r4" {
			continue
		}
		if got := r3.pick(rootKey(k)); got != owner[k] {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys owned by surviving nodes remapped when r4 left", moved)
	}
	if r.pick(rootKey(1)) != r.pick(rootKey(1)) {
		t.Error("pick is not deterministic")
	}
	if (&ring{}).pick(42) != "" {
		t.Error("empty ring should pick nothing")
	}
}
