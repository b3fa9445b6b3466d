package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Server is the object-store half of the remote tier: a memory-backed,
// production-shaped HTTP server speaking the S3-style protocol the
// client consumes — PUT/GET/HEAD/DELETE on opaque keys, prefix listing,
// and append/truncate for the metadata log device. Handlers are safe for
// concurrent use.
//
// For tests it doubles as the latency-faking conformance harness: global
// and per-key latency, periodic 5xx bursts, and torn responses (correct
// Content-Length, half the body, then a dropped connection) are all
// injectable, so the client's hedging and retry paths can be driven
// deterministically. The periodic faults hit each request (method and
// key) at most once, so a client's retry gets through however concurrent
// clients interleave on the shared counters. The fault knobs default to
// off; a Server with no faults configured behaves like a plain object
// store.
type Server struct {
	mu      sync.Mutex
	objects map[string][]byte
	// requests counts handled requests; gets counts GET /o/ fetches —
	// the denominators of the every-N fault knobs.
	requests, gets int64

	latency   time.Duration            // every request sleeps this long
	delayOnce map[string]time.Duration // next GET of key sleeps, consumed
	failNext  int                      // next n requests answer 503
	failEvery int64                    // every nth request answers 503
	tearEvery int64                    // every nth GET /o/ response tears
	slowEvery int64                    // every nth GET /o/ sleeps slowFor
	slowFor   time.Duration
	// faulted holds the "METHOD key" of every request a FailEvery or
	// TearEvery fault has hit; neither hits one twice.
	faulted map[string]bool
}

// NewServer returns an empty object server with no faults configured.
func NewServer() *Server {
	return &Server{objects: map[string][]byte{}, delayOnce: map[string]time.Duration{}, faulted: map[string]bool{}}
}

// SetLatency makes every request sleep d before answering (0 disables).
func (s *Server) SetLatency(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latency = d
}

// DelayOnce makes the next GET of the object at key sleep d before
// answering; the delay is consumed by that one request — the following
// GET of the same key (a retry) answers at normal speed. A hedge request
// never takes the delay: it stalls the request a hedge races, not a
// losing hedge of an earlier read that arrives after DelayOnce.
func (s *Server) DelayOnce(key string, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delayOnce[key] = d
}

// FailNext makes the next n requests answer 503 — a transient burst the
// client's retry-with-backoff must absorb.
func (s *Server) FailNext(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failNext = n
}

// FailEvery makes every nth request answer 503 (0 disables), except a
// request whose method and key a periodic fault has already hit: a retry
// always gets past it, so a retrying client makes progress through an
// arbitrarily long workload, however many clients share the count.
func (s *Server) FailEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failEvery = int64(n)
}

// TearEvery tears every nth GET /o/ response (0 disables): the handler
// declares the full Content-Length, writes half the body, and drops the
// connection — what a mid-transfer network failure looks like to the
// client, which must detect the short body and retry. Like FailEvery, it
// spares a key a periodic fault has already hit.
func (s *Server) TearEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tearEvery = int64(n)
}

// SetSlowEvery makes every nth GET /o/ sleep d before answering (n = 0
// disables) — the steady trickle of tail-latency stragglers read hedging
// exists for.
func (s *Server) SetSlowEvery(n int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slowEvery, s.slowFor = int64(n), d
}

// Reset drops every stored object (and log) while keeping the fault
// configuration — the crash-sweep harness's "fresh bucket" between
// iterations.
func (s *Server) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.objects = map[string][]byte{}
}

// NumObjects returns how many objects the server currently holds.
func (s *Server) NumObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// Handler returns the HTTP handler speaking the object protocol.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /o/{key...}", s.handlePut)
	mux.HandleFunc("GET /o/{key...}", s.handleGet)
	mux.HandleFunc("HEAD /o/{key...}", s.handleHead)
	mux.HandleFunc("DELETE /o/{key...}", s.handleDelete)
	mux.HandleFunc("GET /list", s.handleList)
	mux.HandleFunc("POST /append/{key...}", s.handleAppend)
	mux.HandleFunc("POST /truncate/{key...}", s.handleTruncate)
	return mux
}

// faultDecision is what the fault knobs chose for one request, computed
// under the lock and applied after releasing it.
type faultDecision struct {
	fail  bool
	tear  bool
	sleep time.Duration
}

// decide consumes the fault state for one request. isGet marks GET /o/
// fetches (the only requests that tear, slow, or honor DelayOnce).
func (s *Server) decide(isGet bool, r *http.Request) faultDecision {
	key := r.PathValue("key")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.requests++
	var d faultDecision
	d.sleep = s.latency
	req := r.Method + " " + key
	spared := s.faulted[req]
	if s.failNext > 0 {
		s.failNext--
		d.fail = true
	} else if s.failEvery > 0 && s.requests%s.failEvery == 0 && !spared {
		d.fail = true
		s.faulted[req] = true
	}
	if isGet {
		s.gets++
		if delay, ok := s.delayOnce[key]; ok && r.Header.Get(hedgeHeader) == "" {
			delete(s.delayOnce, key)
			d.sleep += delay
		}
		if s.slowEvery > 0 && s.gets%s.slowEvery == 0 {
			d.sleep += s.slowFor
		}
		if s.tearEvery > 0 && s.gets%s.tearEvery == 0 && !spared {
			d.tear = true
			s.faulted[req] = true
		}
	}
	return d
}

// sleep waits d or until the request is abandoned; it reports whether
// the full wait elapsed. Hedge losers are canceled client-side, so a
// long injected delay must not pin the handler past its request.
func sleep(r *http.Request, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.Context().Done():
		return false
	}
}

// applyFaults runs the decided faults; it reports whether the handler
// should continue to its real work.
func (s *Server) applyFaults(w http.ResponseWriter, r *http.Request, isGet bool) (faultDecision, bool) {
	d := s.decide(isGet, r)
	if !sleep(r, d.sleep) {
		return d, false // client gone; any status is unobservable
	}
	if d.fail {
		http.Error(w, "injected transient fault", http.StatusServiceUnavailable)
		return d, false
	}
	return d, true
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	s.objects[r.PathValue("key")] = data
	s.mu.Unlock()
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	d, ok := s.applyFaults(w, r, true)
	if !ok {
		return
	}
	s.mu.Lock()
	data, ok := s.objects[r.PathValue("key")]
	s.mu.Unlock()
	if !ok {
		http.NotFound(w, r)
		return
	}
	if d.tear && len(data) > 1 {
		// Declare the whole body, deliver half, drop the connection: the
		// client sees an unexpected EOF mid-read. The partial body must be
		// flushed onto the wire before aborting — otherwise the server
		// discards the buffered response and the transport quietly retries
		// a request that "never got a byte back".
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		_, _ = w.Write(data[:len(data)/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

func (s *Server) handleHead(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	s.mu.Lock()
	_, ok := s.objects[r.PathValue("key")]
	s.mu.Unlock()
	if !ok {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	s.mu.Lock()
	delete(s.objects, r.PathValue("key"))
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	prefix := r.URL.Query().Get("prefix")
	s.mu.Lock()
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(keys)
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := r.PathValue("key")
	s.mu.Lock()
	s.objects[key] = append(s.objects[key], data...)
	size := len(s.objects[key])
	s.mu.Unlock()
	fmt.Fprintf(w, "%d", size)
}

func (s *Server) handleTruncate(w http.ResponseWriter, r *http.Request) {
	if _, ok := s.applyFaults(w, r, false); !ok {
		return
	}
	size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
	if err != nil || size < 0 {
		http.Error(w, "bad size", http.StatusBadRequest)
		return
	}
	key := r.PathValue("key")
	s.mu.Lock()
	if cur := s.objects[key]; int64(len(cur)) > size {
		s.objects[key] = cur[:size:size]
	}
	s.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}
