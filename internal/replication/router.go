// Router: the thin gateway in front of a primary and its replicas. It
// keeps a metadata-only replica of its own (over a private in-memory
// backend — record application touches no blobs) so it can resolve any
// version to its delta-chain root locally, then routes GET /checkout and
// GET /checkout/raw by root over the consistent-hash ring. Everything else
// — commits, branches, optimize, jobs — forwards to the primary. Reads of
// versions the routing view has not replicated yet go to the primary too,
// which is what makes read-your-writes hold through the proxy: the moment
// a commit is acknowledged the primary serves it, regardless of replica
// lag. A replica that answers 404 or 5xx (still catching up, or down) is
// retried against the primary — checkout GETs are safe to replay.
package replication

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/vcs"
)

// Router fans checkouts out over a replica fleet by chain root and sends
// every write to the primary. Construct with NewRouter, keep the routing
// view fresh with Run (or Sync in tests), and serve Handler.
type Router struct {
	primary  string
	replicas []string
	ring     *ring
	view     *repo.Repo // metadata-only replica: version → chain root
	follower *Follower
	client   *http.Client

	// routedPrimary / routedReplica / fallbacks count routing decisions:
	// requests sent to the primary outright, requests sent to a replica,
	// and replica answers retried against the primary.
	routedPrimary atomic.Int64
	routedReplica atomic.Int64
	fallbacks     atomic.Int64
}

// NewRouter builds a gateway in front of primaryURL and replicaURLs. With
// no replicas every request forwards to the primary (a useful degenerate
// mode: the proxy's address stays stable while the fleet scales).
func NewRouter(primaryURL string, replicaURLs []string) (*Router, error) {
	view, err := repo.OpenReplica(store.NewMemStore())
	if err != nil {
		return nil, fmt.Errorf("replication: routing view: %w", err)
	}
	primary := strings.TrimRight(primaryURL, "/")
	replicas := make([]string, 0, len(replicaURLs))
	for _, u := range replicaURLs {
		replicas = append(replicas, strings.TrimRight(u, "/"))
	}
	return &Router{
		primary:  primary,
		replicas: replicas,
		ring:     newRing(replicas),
		view:     view,
		follower: NewFollower(view, vcs.NewClient(primary)),
		client:   &http.Client{},
	}, nil
}

// Run keeps the routing view current by following the primary's log tail
// until ctx is done. Without it the router still works — every checkout
// simply falls to the primary — so a router outliving a primary restart
// degrades to a passthrough, not an outage.
func (rt *Router) Run(ctx context.Context) error {
	return rt.follower.Run(ctx)
}

// Sync performs one routing-view catch-up round (tests and startup).
func (rt *Router) Sync(ctx context.Context) error {
	_, err := rt.follower.Sync(ctx, false)
	return err
}

// RouteCounts reports routing decisions so far: checkouts sent straight to
// the primary, checkouts sent to a replica, and replica answers that were
// retried against the primary.
func (rt *Router) RouteCounts() (primary, replica, fallbacks int64) {
	return rt.routedPrimary.Load(), rt.routedReplica.Load(), rt.fallbacks.Load()
}

// Handler returns the gateway's routing table: checkouts by chain root,
// everything else to the primary.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /checkout", rt.handleCheckout)
	mux.HandleFunc("GET /checkout/raw", rt.handleCheckout)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.forward(w, r, rt.primary)
	})
	return mux
}

// target resolves a version to the server that should serve its checkout:
// the ring node owning the version's chain root, or the primary when the
// fleet is empty or the routing view does not know the version yet (just
// committed, not yet replicated — the primary definitely has it).
func (rt *Router) target(v int) string {
	if len(rt.replicas) == 0 {
		return rt.primary
	}
	root, err := rt.view.ChainRoot(v)
	if err != nil {
		return rt.primary
	}
	return rt.ring.pick(rootKey(root))
}

func (rt *Router) handleCheckout(w http.ResponseWriter, r *http.Request) {
	v, err := strconv.Atoi(r.URL.Query().Get("v"))
	if err != nil {
		writeRouterErr(w, http.StatusBadRequest, fmt.Errorf("bad version: %w", err))
		return
	}
	target := rt.target(v)
	if target == rt.primary {
		rt.routedPrimary.Add(1)
		rt.forward(w, r, rt.primary)
		return
	}
	rt.routedReplica.Add(1)
	resp, err := rt.do(r, target)
	if err != nil || resp.StatusCode == http.StatusNotFound || resp.StatusCode >= 500 {
		// The replica is behind (a 404 for a version the routing view
		// knows) or unhealthy; the primary is authoritative and the GET
		// is safe to replay. Nothing has been written to the client yet.
		if resp != nil {
			resp.Body.Close()
		}
		rt.fallbacks.Add(1)
		rt.forward(w, r, rt.primary)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// forward relays the request to target verbatim and the response back.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, target string) {
	resp, err := rt.do(r, target)
	if err != nil {
		writeRouterErr(w, http.StatusBadGateway, err)
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// do re-issues the inbound request against target, preserving method,
// path, query, headers (conditional-request headers like If-None-Match
// matter for /checkout/raw) and body with its stated length (a raw
// POST /commit presizes from it), under the inbound request's context
// so a dropped client cancels the upstream call.
func (rt *Router) do(r *http.Request, target string) (*http.Response, error) {
	out, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), r.Body)
	if err != nil {
		return nil, err
	}
	out.Header = r.Header.Clone()
	out.ContentLength = r.ContentLength
	return rt.client.Do(out)
}

// copyResponse relays status, headers and body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func writeRouterErr(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = fmt.Fprintf(w, "{\"error\":%q}\n", err.Error())
}
