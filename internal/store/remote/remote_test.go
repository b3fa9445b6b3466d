package remote_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"versiondb/internal/store"
	"versiondb/internal/store/remote"
	"versiondb/internal/store/storetest"
)

// randomBytes returns n pseudo-random bytes from a fixed seed.
func randomBytes(t testing.TB, seed int64, n int) []byte {
	t.Helper()
	data := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(data)
	return data
}

// newTestStore starts a fault-injectable object server and returns a
// client wired to it. configure (optional) tunes faults and options
// before the client is built.
func newTestStore(t *testing.T, configure func(srv *remote.Server, opts *remote.Options)) (*remote.Store, *remote.Server) {
	t.Helper()
	srv := remote.NewServer()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	opts := remote.Options{
		HTTPClient: ts.Client(),
		HedgeAfter: -1, // deterministic unless a test opts in
	}
	if configure != nil {
		configure(srv, &opts)
	}
	return remote.New(ts.URL, opts), srv
}

// TestRemoteBackendConformance runs the shared backend suite against a
// clean server and against one injecting latency, periodic 503s, and
// periodic torn responses — the retry path must make every property pass
// anyway. Runs under -race via CI's standard test job.
func TestRemoteBackendConformance(t *testing.T) {
	configs := map[string]func(srv *remote.Server, opts *remote.Options){
		"clean": nil,
		"flaky": func(srv *remote.Server, opts *remote.Options) {
			srv.SetLatency(200 * time.Microsecond)
			srv.FailEvery(7)  // periodic 503 bursts
			srv.TearEvery(11) // periodic torn GET bodies
			opts.RetryBackoff = time.Millisecond
		},
	}
	for name, configure := range configs {
		t.Run(name, func(t *testing.T) {
			storetest.RunBackendConformance(t, func(t *testing.T) store.Backend {
				s, _ := newTestStore(t, configure)
				return s
			})
		})
	}
}

// hedgeCase is one shape of blob a hedging or tearing test reads: a
// payload and the key of the object the test stalls or tears — b/<id>
// itself for a one-chunk blob, one of its chunks for a multi-chunk blob —
// with the number of chunk fetches one cold Get of it counts.
type hedgeCase struct {
	name    string
	payload []byte
	key     string
	fetches int64
}

// hedgeCases returns a one-chunk blob, stored as one object, and a blob of
// at least two chunks, stored as a manifest and its chunks.
func hedgeCases(t *testing.T) []hedgeCase {
	t.Helper()
	one := []byte("hedged payload: small enough to be a single chunk")
	multi := randomBytes(t, 5, 40<<10)
	chunks := remote.Split(multi, remote.DefaultChunkerParams)
	if len(chunks) < 2 {
		t.Fatalf("multi-chunk payload split into %d chunk(s)", len(chunks))
	}
	return []hedgeCase{
		{"one-object", one, "b/" + string(store.HashBytes(one)), 1},
		{"multi-chunk", multi, "c/" + string(store.HashBytes(chunks[len(chunks)-1])), int64(len(chunks))},
	}
}

// TestHedgedReadBeatsSlowChunk pins the hedging contract: when the first
// fetch of an object stalls, the hedge launched after HedgeAfter returns
// first and wins — and the logical read is still counted ONCE (no
// double-counted fetches or bytes). The stalled object is a one-chunk
// blob's only object in one case and a chunk behind a manifest in the
// other.
func TestHedgedReadBeatsSlowChunk(t *testing.T) {
	for _, tc := range hedgeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
				opts.HedgeAfter = 10 * time.Millisecond
				opts.CacheBytes = -1 // force every read to the remote
			})
			id, err := s.Put(tc.payload)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			before := s.TierStats()

			// Stall the next GET of the object far past the hedge trigger;
			// the hedge's GET of the same key runs at full speed.
			srv.DelayOnce(tc.key, 2*time.Second)

			start := time.Now()
			got, err := s.Get(id)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			if !bytes.Equal(got, tc.payload) {
				t.Fatalf("Get returned wrong bytes")
			}
			if elapsed > time.Second {
				t.Errorf("hedged Get took %v — waited out the stalled primary instead of hedging", elapsed)
			}

			d := diffStats(before, s.TierStats())
			if d.Hedged != 1 || d.HedgeWins != 1 {
				t.Errorf("Hedged = %d, HedgeWins = %d, want 1 and 1", d.Hedged, d.HedgeWins)
			}
			// Each chunk was fetched once logically, even though two HTTP
			// requests raced for the stalled one.
			if d.ChunkFetches != tc.fetches {
				t.Errorf("ChunkFetches = %d, want %d (hedge must not double-count)", d.ChunkFetches, tc.fetches)
			}
			if d.BytesFetched != int64(len(tc.payload)) {
				t.Errorf("BytesFetched = %d, want %d (hedge must not double-count bytes)", d.BytesFetched, len(tc.payload))
			}
		})
	}
}

func diffStats(a, b store.TierStats) store.TierStats {
	return store.TierStats{
		ChunkFetches:  b.ChunkFetches - a.ChunkFetches,
		ChunkHits:     b.ChunkHits - a.ChunkHits,
		Hedged:        b.Hedged - a.Hedged,
		HedgeWins:     b.HedgeWins - a.HedgeWins,
		Retries:       b.Retries - a.Retries,
		ChunksStored:  b.ChunksStored - a.ChunksStored,
		ChunksDeduped: b.ChunksDeduped - a.ChunksDeduped,
		BytesFetched:  b.BytesFetched - a.BytesFetched,
		BytesStored:   b.BytesStored - a.BytesStored,
		BytesDeduped:  b.BytesDeduped - a.BytesDeduped,
	}
}

// TestRetryRecoversFrom5xxBurst: a burst of 503s shorter than the retry
// budget is absorbed; one longer is surfaced as an error.
func TestRetryRecoversFrom5xxBurst(t *testing.T) {
	s, srv := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
		opts.RetryBackoff = time.Millisecond
	})
	id, err := s.Put([]byte("survives a burst"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}

	srv.FailNext(3) // < DefaultRetries
	fresh := freshClient(t, srv)
	if _, err := fresh.Get(id); err != nil {
		t.Fatalf("Get under 3-deep 503 burst: %v", err)
	}
	if got := fresh.TierStats().Retries; got < 3 {
		t.Errorf("Retries = %d, want ≥ 3", got)
	}

	srv.FailNext(50) // > retry budget on every request
	fresh2 := freshClient(t, srv)
	if _, err := fresh2.Get(id); err == nil {
		t.Errorf("Get under unbounded 503s succeeded, want error")
	}
	srv.FailNext(0)
}

// freshClient returns a new cache-less client against the same server —
// counters at zero, nothing served locally.
func freshClient(t *testing.T, srv *remote.Server) *remote.Store {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return remote.New(ts.URL, remote.Options{
		HTTPClient:   ts.Client(),
		HedgeAfter:   -1,
		CacheBytes:   -1,
		RetryBackoff: time.Millisecond,
	})
}

// TestTornResponseRetried: a GET whose body is cut short of its declared
// Content-Length is detected and retried, not returned truncated — for a
// one-chunk blob's only object and for a manifest and its chunks.
func TestTornResponseRetried(t *testing.T) {
	for _, tc := range hedgeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
				opts.CacheBytes = -1
				opts.RetryBackoff = time.Millisecond
			})
			id, err := s.Put(tc.payload)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			// Every GET tears, except that a torn object is spared from
			// then on, so each object tears once and its retry succeeds.
			srv.TearEvery(1)
			got, err := s.Get(id)
			if err != nil {
				t.Fatalf("Get with torn responses: %v", err)
			}
			if !bytes.Equal(got, tc.payload) {
				t.Fatalf("Get returned corrupt bytes after tear+retry")
			}
			if s.TierStats().Retries == 0 {
				t.Errorf("no retry counted despite torn responses")
			}
		})
	}
}

// TestChunkDedupAcrossVersions: near-identical payloads share chunks, so
// the second Put transfers only what changed and the dedup ratio shows
// it. This is the delta-chain storage saving at the chunk level.
func TestChunkDedupAcrossVersions(t *testing.T) {
	s, _ := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
		opts.CacheBytes = -1 // dedup must work server-side, not via cache
	})
	v1 := randomBytes(t, 99, 256<<10)
	if _, err := s.Put(v1); err != nil {
		t.Fatalf("Put v1: %v", err)
	}
	// Edit a few bytes in the middle: chunking resyncs around the edit.
	v2 := append([]byte(nil), v1...)
	copy(v2[128<<10:], []byte("small edit"))
	before := s.TierStats()
	if _, err := s.Put(v2); err != nil {
		t.Fatalf("Put v2: %v", err)
	}
	d := diffStats(before, s.TierStats())
	if d.ChunksDeduped == 0 {
		t.Fatalf("second version shared no chunks with the first")
	}
	if d.BytesDeduped < d.BytesStored {
		t.Errorf("BytesDeduped = %d < BytesStored = %d — a small edit re-transferred most of the blob", d.BytesDeduped, d.BytesStored)
	}
	if r := s.TierStats().DedupRatio(); r < 0.3 {
		t.Errorf("DedupRatio = %.2f, want ≥ 0.3 after a near-identical Put", r)
	}
}

// TestNearTierCacheServesRepeatReads: with the cache on, a repeat Get
// touches the remote zero times.
func TestNearTierCacheServesRepeatReads(t *testing.T) {
	s, _ := newTestStore(t, nil)
	data := randomBytes(t, 3, 64<<10)
	id, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := s.Get(id); err != nil {
		t.Fatalf("Get: %v", err)
	}
	before := s.TierStats()
	if _, err := s.Get(id); err != nil {
		t.Fatalf("repeat Get: %v", err)
	}
	d := diffStats(before, s.TierStats())
	if d.ChunkFetches != 0 {
		t.Errorf("repeat Get fetched %d chunks from the remote, want 0", d.ChunkFetches)
	}
	if d.ChunkHits == 0 {
		t.Errorf("repeat Get counted no near-tier hits")
	}
}

// TestGetStream verifies the incremental reader: bytes identical to Get,
// hash checked at EOF, corruption surfaced as a Read error.
func TestGetStream(t *testing.T) {
	s, _ := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
		opts.CacheBytes = -1
	})
	data := randomBytes(t, 8, 100<<10)
	id, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	rc, err := s.GetStream(id)
	if err != nil {
		t.Fatalf("GetStream: %v", err)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	rc.Close()
	if !bytes.Equal(got, data) {
		t.Fatalf("stream returned wrong bytes")
	}
}

// TestGetMissingAndMalformed: 404s surface as fs.ErrNotExist (so the
// repository's negative cache and open-or-init logic work unchanged) and
// malformed ids never touch the network.
func TestGetMissingAndMalformed(t *testing.T) {
	s, _ := newTestStore(t, nil)
	if _, err := s.Get(store.HashBytes([]byte("never stored"))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get missing: err = %v, want fs.ErrNotExist", err)
	}
	if _, err := s.GetMeta("never.json"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("GetMeta missing: err = %v, want fs.ErrNotExist", err)
	}
}

// TestLogDeviceRoundTrip: the server-side log device appends, reads
// back, and truncates — the metadata log's durable medium over HTTP.
func TestLogDeviceRoundTrip(t *testing.T) {
	s, _ := newTestStore(t, nil)
	dev, err := s.OpenLog("wal")
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	if data, err := dev.ReadAll(); err != nil || len(data) != 0 {
		t.Fatalf("fresh log ReadAll = %q, %v, want empty", data, err)
	}
	if err := dev.Append([]byte("rec1")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := dev.Append([]byte("rec2")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	data, err := dev.ReadAll()
	if err != nil || string(data) != "rec1rec2" {
		t.Fatalf("ReadAll = %q, %v, want rec1rec2", data, err)
	}
	if err := dev.Truncate(4); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	data, _ = dev.ReadAll()
	if string(data) != "rec1" {
		t.Fatalf("post-truncate ReadAll = %q, want rec1", data)
	}
	if err := dev.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestAdaptiveHedge: with HedgeAfter = 0 the client hedges only after
// enough latency samples, then beats an injected straggler — a one-chunk
// blob's only object, or a chunk behind a manifest.
func TestAdaptiveHedge(t *testing.T) {
	for _, tc := range hedgeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			s, srv := newTestStore(t, func(srv *remote.Server, opts *remote.Options) {
				opts.HedgeAfter = 0 // adaptive
				opts.CacheBytes = -1
			})
			id, err := s.Put(tc.payload)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			// Warm the latency ring well past the minimum sample count.
			for i := 0; i < 16; i++ {
				if _, err := s.Get(id); err != nil {
					t.Fatalf("warmup Get: %v", err)
				}
			}
			srv.DelayOnce(tc.key, 2*time.Second)
			start := time.Now()
			if _, err := s.Get(id); err != nil {
				t.Fatalf("Get: %v", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Errorf("adaptive hedge took %v — straggler not hedged", elapsed)
			}
			if s.TierStats().HedgeWins == 0 {
				t.Errorf("no hedge win recorded against a 2s straggler")
			}
		})
	}
}
