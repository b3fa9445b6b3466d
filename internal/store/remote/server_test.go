package remote

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"versiondb/internal/store"
)

// TestFailEveryFailsEachRequestOnce: under FailEvery(2), half of all
// requests are due a 503, yet a client allowed one retry never fails —
// however its requests interleave with seven others on the shared count —
// because a periodic fault never hits the same method and key twice.
func TestFailEveryFailsEachRequestOnce(t *testing.T) {
	srv := NewServer()
	srv.FailEvery(2)
	srv.TearEvery(2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := New(ts.URL, Options{HTTPClient: ts.Client(), HedgeAfter: -1, CacheBytes: -1, Retries: 1, RetryBackoff: time.Millisecond})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 10 {
				data := []byte(fmt.Sprintf("blob %d", (w%2)*100+i))
				id, err := s.Put(data)
				if err == nil {
					_, err = s.Get(id)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("with one retry allowed: %v", err)
	}
	if s.TierStats().Retries == 0 {
		t.Errorf("no retries: the faults never fired")
	}
}

// TestDelayOnceStallsOnlyThePrimary: a hedge request that reaches the
// server after DelayOnce — the late loser of an earlier hedged read — does
// not take the delay; the next plain GET does.
func TestDelayOnceStallsOnlyThePrimary(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	s := New(ts.URL, Options{HTTPClient: ts.Client(), HedgeAfter: -1, CacheBytes: -1})
	payload := []byte("one chunk")
	if _, err := s.Put(payload); err != nil {
		t.Fatal(err)
	}
	key := blobPrefix + string(store.HashBytes(payload)) // the blob's only object
	srv.DelayOnce(key, 300*time.Millisecond)
	get := func(hedge bool) time.Duration {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/o/"+key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if hedge {
			req.Header.Set(hedgeHeader, "1")
		}
		start := time.Now()
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", key, resp.StatusCode)
		}
		return time.Since(start)
	}
	if d := get(true); d >= 300*time.Millisecond {
		t.Fatalf("hedge GET took %v: it took the primary's delay", d)
	}
	if d := get(false); d < 300*time.Millisecond {
		t.Fatalf("plain GET took %v: the delay was already gone", d)
	}
	if d := get(false); d >= 300*time.Millisecond {
		t.Fatalf("second plain GET took %v: the delay was not consumed", d)
	}
}
