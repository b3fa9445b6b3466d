package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/store/remote"
	"versiondb/internal/vcs"
)

// httpServer is an in-process HTTP server on a loopback port.
type httpServer struct {
	srv  *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &httpServer{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	// The client side of the loopback connections would otherwise linger
	// in the default transport's idle pool, pointing at a dead port.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// tier is where a repository's bytes live: in process memory (vmsd
// -backend mem), or in an in-process object server reached over loopback
// (the store/remote tier).
type tier struct {
	mem    *memStore      // mem tier
	objSrv *remote.Server // remote tier: the object store
	object *httpServer    // remote tier: objSrv's handler, served
	traced *tracer        // the tracer object's handler records into
	// chunkCache is the near-tier chunk cache budget of the remote client
	// a reopen creates (the client that loads uses the default).
	chunkCache int64
}

func newMemTier() *tier { return &tier{mem: newMemStore()} }

func newRemoteTier(t *tracer) (*tier, error) {
	tr := &tier{objSrv: remote.NewServer()}
	if err := tr.serveObjects(t); err != nil {
		return nil, err
	}
	return tr, nil
}

// serveObjects (re)starts the object server's HTTP front, wrapped in a
// span when t is set. The objects survive; only the port changes, which
// only a new backend client sees.
func (tr *tier) serveObjects(t *tracer) error {
	if tr.object != nil {
		if err := tr.object.stop(); err != nil {
			return err
		}
	}
	var h http.Handler = tr.objSrv.Handler()
	if t != nil {
		h = t.middleware("remote.server", h)
	}
	s, err := serve(h)
	if err != nil {
		return err
	}
	tr.object, tr.traced = s, t
	return nil
}

func (tr *tier) remote() bool { return tr.objSrv != nil }

// backend returns a client of the tier: the in-memory store itself, or a
// new remote client with empty near-tier caches and adaptive hedging
// (vmsd's default).
func (tr *tier) backend() store.Backend {
	if !tr.remote() {
		return tr.mem
	}
	return remote.New(tr.object.url, remote.Options{CacheBytes: tr.chunkCache})
}

func (tr *tier) close() error {
	if tr.remote() {
		return tr.object.stop()
	}
	return nil
}

// memStore is the in-memory backend that also remembers the names of the
// documents and logs written to it, so that commit cycles can each start
// from a copy of the state a set-up left.
type memStore struct {
	*store.MemStore
	mu          sync.Mutex
	metas, logs map[string]bool
}

func newMemStore() *memStore {
	return &memStore{MemStore: store.NewMemStore(), metas: map[string]bool{}, logs: map[string]bool{}}
}

func (m *memStore) PutMeta(name string, data []byte) error {
	m.mu.Lock()
	m.metas[name] = true
	m.mu.Unlock()
	return m.MemStore.PutMeta(name, data)
}

func (m *memStore) OpenLog(name string) (store.LogDevice, error) {
	m.mu.Lock()
	m.logs[name] = true
	m.mu.Unlock()
	return m.MemStore.OpenLog(name)
}

// clone copies every blob, document and log into a new store.
func (m *memStore) clone() (*memStore, error) {
	c := newMemStore()
	ids, err := m.List()
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		data, err := m.Get(id)
		if err != nil {
			return nil, err
		}
		if _, err := c.Put(data); err != nil {
			return nil, err
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.metas {
		data, err := m.MemStore.GetMeta(name)
		if err != nil {
			return nil, err
		}
		if err := c.PutMeta(name, data); err != nil {
			return nil, err
		}
	}
	for name := range m.logs {
		src, err := m.MemStore.OpenLog(name)
		if err != nil {
			return nil, err
		}
		data, err := src.ReadAll()
		if err != nil {
			return nil, err
		}
		dst, err := c.OpenLog(name)
		if err != nil {
			return nil, err
		}
		if err := dst.Append(data); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// instance is one repository served over HTTP by a vcs.Server.
type instance struct {
	repo   *repo.Repo
	server *vcs.Server
	http   *httpServer
	client *vcs.Client
	tracer *tracer
}

// open opens the repository in tier over a fresh backend client and serves
// it. With a tracer, the backend and the handler are wrapped in spans.
func open(tr *tier, t *tracer, init bool) (*instance, time.Duration, error) {
	if tr.remote() && tr.traced != t {
		if err := tr.serveObjects(t); err != nil {
			return nil, 0, err
		}
	}
	b := tr.backend()
	var err error
	if t != nil {
		if b, err = wrapBackend(b, t); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	var r *repo.Repo
	if init {
		r, err = repo.InitBackend(b)
	} else {
		r, err = repo.OpenBackend(b)
	}
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	srv := vcs.NewServer(r)
	h := srv.Handler()
	if t != nil {
		h = t.middleware("vcs.handler", h)
	}
	hs, err := serve(h)
	if err != nil {
		srv.Close()
		_ = r.Close()
		return nil, 0, err
	}
	return &instance{repo: r, server: srv, http: hs, client: vcs.NewClient(hs.url), tracer: t}, took, nil
}

func (in *instance) close() error {
	err := in.http.stop()
	in.server.Close()
	if cerr := in.repo.Close(); err == nil {
		err = cerr
	}
	return err
}
