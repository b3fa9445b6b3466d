package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"versiondb/internal/delta"
)

// drainStream reads a CheckoutStream to the end and closes it.
func drainStream(t *testing.T, l *Layout, v int) []byte {
	t.Helper()
	rc, _, err := l.CheckoutStream(v)
	if err != nil {
		t.Fatalf("CheckoutStream(%d): %v", v, err)
	}
	defer rc.Close()
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("CheckoutStream(%d) read: %v", v, err)
	}
	return got
}

// TestCheckoutStreamMatchesBuffered: on random storage trees — compressed
// and not, cached and not, with and without empty payloads — the streaming
// path reconstructs exactly the bytes the buffered path does, for every
// version, whichever path fills the cache first. The empty payloads cover a
// cached empty chain base: its payload may be a nil slice, which must
// still count as a cache hit.
func TestCheckoutStreamMatchesBuffered(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, empties := range []bool{false, true} {
			for _, compress := range []bool{false, true} {
				for _, withCache := range []bool{false, true} {
					for _, streamFirst := range []bool{true, false} {
						rng := rand.New(rand.NewSource(seed))
						n := 2 + rng.Intn(12)
						payloads := chainPayloads(rng, n)
						tree := randomStorageTree(rng, n)
						if empties {
							// Version 0 is always materialized, so emptying it
							// gives every delta child of 0 an empty base.
							payloads[0] = nil
							payloads[rng.Intn(n)] = nil
						}
						l, err := BuildLayout(NewMemStore(), payloads, tree, compress, nil)
						if err != nil {
							t.Fatalf("BuildLayout: %v", err)
						}
						if withCache {
							l.SetCache(NewVersionCache(3))
						}
						for pass := 0; pass < 2; pass++ {
							stream := (pass == 0) == streamFirst
							for v := 0; v < n; v++ {
								var got []byte
								if stream {
									got = drainStream(t, l, v)
								} else if got, err = l.Checkout(v); err != nil {
									t.Fatalf("Checkout(%d): %v", v, err)
								}
								if !bytes.Equal(got, payloads[v]) {
									t.Fatalf("seed=%d empties=%v compress=%v cache=%v streamFirst=%v stream=%v v=%d: got %q, want %q",
										seed, empties, compress, withCache, streamFirst, stream, v, got, payloads[v])
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestCheckoutStreamCountsServingWork: a cold stream pays the same observable
// Φ as a cold buffered checkout — one blob read per chain node, one delta
// application per edge.
func TestCheckoutStreamCountsServingWork(t *testing.T) {
	const n = 5
	l, payloads := linearLayout(t, NewMemStore(), n)
	got := drainStream(t, l, n-1)
	if !bytes.Equal(got, payloads[n-1]) {
		t.Fatal("stream payload diverged")
	}
	if br := l.BlobReads(); br != n {
		t.Errorf("BlobReads = %d, want %d", br, n)
	}
	if d := l.DeltaApplications(); d != n-1 {
		t.Errorf("DeltaApplications = %d, want %d", d, n-1)
	}
}

// TestCheckoutStreamCacheTee: a fully drained cold stream admits the
// requested version; the next stream is an exact cache hit with a known
// size and no new backend reads.
func TestCheckoutStreamCacheTee(t *testing.T) {
	const n = 4
	l, payloads := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCacheBytes(1 << 20))

	got := drainStream(t, l, n-1)
	if !bytes.Equal(got, payloads[n-1]) {
		t.Fatal("stream payload diverged")
	}
	if p, ok := l.cache.peek(n - 1); !ok || !bytes.Equal(p, payloads[n-1]) {
		t.Fatal("drained stream did not admit the payload to the cache")
	}
	before := l.BlobReads()
	rc, size, err := l.CheckoutStream(n - 1)
	if err != nil {
		t.Fatalf("hot CheckoutStream: %v", err)
	}
	defer rc.Close()
	if size != int64(len(payloads[n-1])) {
		t.Errorf("hot stream size = %d, want %d", size, len(payloads[n-1]))
	}
	hot, _ := io.ReadAll(rc)
	if !bytes.Equal(hot, payloads[n-1]) {
		t.Fatal("hot stream payload diverged")
	}
	if l.BlobReads() != before {
		t.Errorf("hot stream touched the backend: %d → %d blob reads", before, l.BlobReads())
	}
}

// TestCheckoutStreamOutlivesClear: a cold stream built before a Clear and
// drained after it admits nothing, so bytes read under a history that a
// reset replaced never come back into the cache.
func TestCheckoutStreamOutlivesClear(t *testing.T) {
	const n = 3
	l, payloads := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCacheBytes(1 << 20))
	rc, _, err := l.CheckoutStream(n - 1)
	if err != nil {
		t.Fatalf("CheckoutStream: %v", err)
	}
	l.cache.Clear()
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, payloads[n-1]) {
		t.Fatalf("stream across Clear: %d bytes, %v", len(got), err)
	}
	if _, ok := l.cache.peek(n - 1); ok {
		t.Fatal("a stream built before Clear admitted its payload after it")
	}
	if got := drainStream(t, l, n-1); !bytes.Equal(got, payloads[n-1]) {
		t.Fatal("stream after Clear diverged")
	}
	if _, ok := l.cache.peek(n - 1); !ok {
		t.Fatal("a stream built after Clear did not admit its payload")
	}
}

// TestCheckoutStreamOversizedSkipsAdmission: a payload larger than the
// cache's byte budget streams through without being admitted — and without
// the tee accumulating it (the buffer is dropped the moment the cap is
// provably exceeded).
func TestCheckoutStreamOversizedSkipsAdmission(t *testing.T) {
	payload := bytes.Repeat([]byte("line of filler content\n"), 4096) // ~92 KiB
	b := NewMemStore()
	id, err := b.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	l := &Layout{backend: b, Entries: []Entry{
		{Parent: -1, Materialized: true, Blob: id, StoredBytes: len(payload)},
	}}
	l.SetCache(NewVersionCacheBytes(1024)) // far smaller than the payload

	got := drainStream(t, l, 0)
	if !bytes.Equal(got, payload) {
		t.Fatal("oversized stream diverged")
	}
	if _, ok := l.cache.peek(0); ok {
		t.Fatal("oversized payload was admitted past the byte budget")
	}
	if bb := l.cache.Stats().BytesResident; bb != 0 {
		t.Fatalf("cache holds %d bytes after an oversized stream", bb)
	}
}

// TestCheckoutStreamAbandonedAdmitsNothing: a stream the client walks away
// from must not admit a truncated payload.
func TestCheckoutStreamAbandonedAdmitsNothing(t *testing.T) {
	const n = 3
	l, _ := linearLayout(t, NewMemStore(), n)
	l.SetCache(NewVersionCacheBytes(1 << 20))
	rc, _, err := l.CheckoutStream(n - 1)
	if err != nil {
		t.Fatal(err)
	}
	var first [8]byte
	if _, err := rc.Read(first[:]); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	if _, ok := l.cache.peek(n - 1); ok {
		t.Fatal("abandoned stream admitted a partial payload")
	}
}

// TestCheckoutStreamCorruptChain: cycles and corrupt delta blobs terminate
// with an error on the streaming path — at construction for chain-walk
// faults, from Read for content faults — never with a hang or a silent
// wrong payload.
func TestCheckoutStreamCorruptChain(t *testing.T) {
	l := corruptLayout(t)
	if _, _, err := l.CheckoutStream(0); err == nil {
		t.Fatal("CheckoutStream on a parent cycle succeeded")
	}

	// A delta blob that is not a valid encoding must surface from Read.
	b := NewMemStore()
	base, err := b.Put([]byte("alpha\nbeta\n"))
	if err != nil {
		t.Fatal(err)
	}
	junk, err := b.Put([]byte{0xff, 0xfe, 0xfd, 0xfc})
	if err != nil {
		t.Fatal(err)
	}
	bad := &Layout{backend: b, Entries: []Entry{
		{Parent: -1, Materialized: true, Blob: base, StoredBytes: 11},
		{Parent: 0, Blob: junk, StoredBytes: 4},
	}}
	rc, _, err := bad.CheckoutStream(1)
	if err != nil {
		return // construction-time rejection is fine too
	}
	defer rc.Close()
	if _, err := io.ReadAll(rc); err == nil {
		t.Fatal("corrupt delta blob streamed without error")
	}
}

// failBackend fails every Get while armed, counting attempts — the
// "struggling backend" the negative-result TTL protects.
type failBackend struct {
	Backend
	fail atomic.Bool
	gets atomic.Int64
}

var errBackendDown = errors.New("backend unavailable")

func (f *failBackend) Get(id ID) ([]byte, error) {
	f.gets.Add(1)
	if f.fail.Load() {
		return nil, errBackendDown
	}
	return f.Backend.Get(id)
}

// TestNegativeResultTTL: a failed materialization is remembered — retries
// inside the TTL are answered from memory with the original error and zero
// backend traffic; after the TTL (or a success) the backend is probed
// again. Applies to both the buffered and the streaming path.
func TestNegativeResultTTL(t *testing.T) {
	fb := &failBackend{Backend: NewMemStore()}
	l, payloads := linearLayout(t, fb, 4)
	l.negTTL = 50 * time.Millisecond

	fb.fail.Store(true)
	if _, err := l.Checkout(3); !errors.Is(err, errBackendDown) {
		t.Fatalf("Checkout during outage: %v, want %v", err, errBackendDown)
	}
	afterFirst := fb.gets.Load()
	if afterFirst == 0 {
		t.Fatal("first checkout never reached the backend")
	}
	// Retry storm inside the TTL: same error, no backend traffic at all.
	for i := 0; i < 5; i++ {
		if _, err := l.Checkout(3); !errors.Is(err, errBackendDown) {
			t.Fatalf("retry %d: %v, want remembered %v", i, err, errBackendDown)
		}
		if _, _, err := l.CheckoutStream(3); !errors.Is(err, errBackendDown) {
			t.Fatalf("stream retry %d: %v, want remembered %v", i, err, errBackendDown)
		}
	}
	if g := fb.gets.Load(); g != afterFirst {
		t.Fatalf("retries inside the TTL hit the backend: %d → %d gets", afterFirst, g)
	}

	// After the TTL the backend is probed again — and the heal is observed.
	fb.fail.Store(false)
	time.Sleep(60 * time.Millisecond)
	got, err := l.Checkout(3)
	if err != nil || !bytes.Equal(got, payloads[3]) {
		t.Fatalf("post-heal Checkout: %v", err)
	}
}

// gateBackend parks every Get until release is closed, announcing each on
// held, and fails GetStream while failStream is set: it orders a buffered
// and a streaming checkout of one version around an outage.
type gateBackend struct {
	*MemStore
	held, release chan struct{}
	failStream    atomic.Bool
}

func (g *gateBackend) Get(id ID) ([]byte, error) {
	g.held <- struct{}{}
	<-g.release
	return g.MemStore.Get(id)
}

func (g *gateBackend) GetStream(id ID) (io.ReadCloser, error) {
	if g.failStream.Load() {
		return nil, errBackendDown
	}
	return g.MemStore.GetStream(id)
}

// TestNegativeTTLClearedOnSuccess: a buffered materialization that succeeds
// forgets the failure a stream of the same version recorded while it was
// in flight, so the failure window never outlives the recovery it is meant
// to bridge.
func TestNegativeTTLClearedOnSuccess(t *testing.T) {
	gb := &gateBackend{MemStore: NewMemStore(), held: make(chan struct{}), release: make(chan struct{})}
	l, payloads := linearLayout(t, gb, 2)
	l.negTTL = time.Hour // only the success can clear the failure in time

	done := make(chan error, 1)
	go func() {
		got, err := l.Checkout(0)
		if err == nil && !bytes.Equal(got, payloads[0]) {
			err = errors.New("wrong payload")
		}
		done <- err
	}()
	<-gb.held

	gb.failStream.Store(true)
	if _, _, err := l.CheckoutStream(0); !errors.Is(err, errBackendDown) {
		t.Fatalf("CheckoutStream during outage: %v, want %v", err, errBackendDown)
	}
	gb.failStream.Store(false)
	close(gb.release)
	if err := <-done; err != nil {
		t.Fatalf("buffered Checkout: %v", err)
	}
	if got := drainStream(t, l, 0); !bytes.Equal(got, payloads[0]) {
		t.Fatal("post-recovery stream diverges from the committed payload")
	}
}

// TestCheckoutStreamCompressedChain exercises the flate stage of the base
// blob stream plus streaming delta stages above it.
func TestCheckoutStreamCompressedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	payloads := chainPayloads(rng, 6)
	l, err := BuildLayout(NewMemStore(), payloads, randomStorageTree(rng, 6), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := range payloads {
		if got := drainStream(t, l, v); !bytes.Equal(got, payloads[v]) {
			t.Fatalf("compressed stream v=%d diverged", v)
		}
	}
}

// TestStreamUsesBlobStreamer: the base payload is streamed through the
// backend's GetStream, not buffered via Get. Observable: a backend
// whose Get panics but whose GetStream works still serves the chain base
// (delta blobs above it legitimately use Get).
type streamOnlyBackend struct {
	*MemStore
	baseID ID
}

func (s *streamOnlyBackend) Get(id ID) ([]byte, error) {
	if id == s.baseID {
		return nil, errors.New("buffered Get of the base payload — streaming path regressed")
	}
	return s.MemStore.Get(id)
}

func TestStreamUsesBlobStreamer(t *testing.T) {
	ms := NewMemStore()
	base := []byte("v0 line one\nv0 line two\n")
	next := []byte("v0 line one\nv1 line two\n")
	baseID, err := ms.Put(base)
	if err != nil {
		t.Fatal(err)
	}
	d := delta.Encode(delta.DiffLines(base, next), true)
	deltaID, err := ms.Put(d)
	if err != nil {
		t.Fatal(err)
	}
	sb := &streamOnlyBackend{MemStore: ms, baseID: baseID}
	l := &Layout{backend: sb, Entries: []Entry{
		{Parent: -1, Materialized: true, Blob: baseID, StoredBytes: len(base)},
		{Parent: 0, Blob: deltaID, StoredBytes: len(d)},
	}}
	if got := drainStream(t, l, 1); !bytes.Equal(got, next) {
		t.Fatalf("stream via BlobStreamer diverged: %q", got)
	}
}

// FuzzCheckoutStreamMatchesBuffered: on a random storage tree over random
// line-exact payloads (some empty), under a random byte budget (0 means no
// cache), any interleaving of buffered and streaming checkouts returns the
// committed bytes. Each op byte picks a version (high bits) and a path
// (low bit: 1 streams). The seeds stream version 0, stored empty, before
// its delta children — the cached-empty-base case.
func FuzzCheckoutStreamMatchesBuffered(f *testing.F) {
	all := func(stream byte) []byte {
		ops := make([]byte, 16)
		for v := range ops {
			ops[v] = byte(v)<<1 | stream
		}
		return ops
	}
	f.Add(int64(1), uint16(1), uint16(1<<14), all(1))
	f.Add(int64(1), uint16(1), uint16(1<<14), append(all(0), all(1)...))
	f.Add(int64(3), uint16(0x0501), uint16(900), append(all(1), all(0)...))
	f.Fuzz(func(t *testing.T, seed int64, empty, budget uint16, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		payloads := chainPayloads(rng, n)
		tree := randomStorageTree(rng, n)
		for v := range payloads {
			if empty&(1<<v) != 0 {
				payloads[v] = nil
			}
		}
		l, err := BuildLayout(NewMemStore(), payloads, tree, rng.Intn(2) == 1, nil)
		if err != nil {
			t.Fatalf("BuildLayout: %v", err)
		}
		l.SetCache(NewVersionCacheBytes(int64(budget)))
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i, op := range ops {
			v, stream := int(op>>1)%n, op&1 == 1
			var got []byte
			if stream {
				got = drainStream(t, l, v)
			} else if got, err = l.Checkout(v); err != nil {
				t.Fatalf("op %d: Checkout(%d): %v", i, v, err)
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Fatalf("op %d (stream=%v) v=%d: got %q, want %q", i, stream, v, got, payloads[v])
			}
		}
	})
}
