// Serving-path benchmarks: the fast lane a production deployment actually
// feels — concurrent cold checkouts coalescing onto one chain replay,
// byte-budgeted cache behavior under skewed payload sizes, and the O(n)
// memoized Φ accounting the autotune drift trigger polls. Run:
//
//	go test -bench 'Serving|ConcurrentColdCheckout|WeightedPhi|CheckoutHotVsCold|StreamingCheckout' -benchtime=1x -run xxx .
//
// With BENCH_SERVING_OUT=BENCH_serving.json the run writes a small JSON
// report of every serving benchmark's metrics — the start of the perf
// trajectory CI uploads as an artifact on every push.
package versiondb_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"versiondb/internal/bench"
	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/store/remote"
)

// servingReport collects metrics from serving benchmarks for the
// BENCH_serving.json trajectory file; guarded by servingMu since
// sub-benchmarks may run from different goroutines.
var (
	servingMu     sync.Mutex
	servingResult = map[string]map[string]float64{}
)

// recordServing files one benchmark's metrics into the report (and
// reports them to the benchmark framework as well).
func recordServing(b *testing.B, metrics map[string]float64) {
	b.Helper()
	row := map[string]float64{
		"ns_per_op": float64(b.Elapsed().Nanoseconds()) / float64(b.N),
	}
	for k, v := range metrics {
		b.ReportMetric(v, k)
		row[k] = v
	}
	servingMu.Lock()
	servingResult[b.Name()] = row
	servingMu.Unlock()
}

// writeServingReport renders the collected metrics as deterministic JSON.
func writeServingReport(path string) error {
	servingMu.Lock()
	defer servingMu.Unlock()
	if len(servingResult) == 0 {
		return nil // -bench was not run; leave any existing report alone
	}
	names := make([]string, 0, len(servingResult))
	for n := range servingResult {
		names = append(names, n)
	}
	sort.Strings(names)
	type entry struct {
		Name    string             `json:"name"`
		Metrics map[string]float64 `json:"metrics"`
	}
	report := struct {
		Go      string  `json:"go"`
		Cpus    int     `json:"cpus"`
		Results []entry `json:"results"`
	}{Go: runtime.Version(), Cpus: runtime.NumCPU()}
	for _, n := range names {
		report.Results = append(report.Results, entry{Name: n, Metrics: servingResult[n]})
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func TestMain(m *testing.M) {
	code := m.Run()
	if out := os.Getenv("BENCH_SERVING_OUT"); out != "" && code == 0 {
		if err := writeServingReport(out); err != nil {
			fmt.Fprintln(os.Stderr, "writing serving report:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// BenchmarkConcurrentColdCheckout is the thundering-herd scenario: many
// goroutines demand the same cold version at once. Singleflight
// materialization coalesces them onto one chain replay — deltas/op stays
// at one chain's worth (≈ versions-1) instead of workers × chain. The
// exact-coalescing property (one replay, asserted deterministically with
// a gated backend) is proved by TestConcurrentColdCheckoutsCoalesce in
// internal/store; this benchmark tracks the wall-clock and I/O trajectory.
func BenchmarkConcurrentColdCheckout(b *testing.B) {
	const versions = 24
	for _, workers := range []int{4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			r := chainRepo(b, versions)
			start := r.DeltaApplications()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				// A fresh byte-budgeted cache makes every iteration cold
				// without rebuilding the repository.
				r.EnableCacheBytes(1 << 20)
				b.StartTimer()
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := r.Checkout(versions - 1); err != nil {
							b.Error(err)
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			deltasPerOp := float64(r.DeltaApplications()-start) / float64(b.N)
			recordServing(b, map[string]float64{
				"deltas/op": deltasPerOp,
				"workers":   float64(workers),
			})
			// Coalescing bound: one chain replay per cold iteration, not
			// one per worker. (Assertion lives here too so the perf
			// trajectory cannot silently regress into herd behavior.)
			if deltasPerOp > float64(versions) {
				b.Fatalf("deltas/op = %.1f, want ≤ %d (one chain replay per iteration)", deltasPerOp, versions)
			}
		})
	}
}

// BenchmarkWeightedPhi times the Φ-drift metric the autotune engine polls
// on a timer. The memoized cold-cost DP makes it O(n) with near-zero
// allocations; the memo-vs-walk gap itself is measured by
// BenchmarkColdCostAccounting in internal/store.
func BenchmarkWeightedPhi(b *testing.B) {
	for _, versions := range []int{64, 256} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			r := chainRepo(b, versions)
			// Skew the telemetry so the weighted path (not the uniform
			// shortcut) is exercised.
			for i := 0; i < 32; i++ {
				if _, err := r.Checkout(versions - 1 - i%8); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var phi float64
			for i := 0; i < b.N; i++ {
				phi = r.WeightedPhi()
			}
			b.StopTimer()
			if phi <= 0 {
				b.Fatal("WeightedPhi returned a non-positive estimate")
			}
			recordServing(b, map[string]float64{"phi_bytes": phi})
		})
	}
}

// BenchmarkByteBudgetServing drives a skewed checkout workload through a
// byte-budgeted cache sized to hold only part of the working set, so
// admission and eviction are continuously exercised — the regime `vmsd
// -cache-bytes` runs in production.
func BenchmarkByteBudgetServing(b *testing.B) {
	const versions = 32
	r := chainRepo(b, versions)
	// Budget ≈ a handful of payloads: the hot head fits, the tail churns.
	r.EnableCacheBytes(8 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := versions - 1 - i%4 // hot head
		if i%7 == 0 {
			v = i % versions // occasional tail scan
		}
		if _, err := r.Checkout(v); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m := r.CacheMetrics()
	if m.BytesResident > m.BudgetBytes {
		b.Fatalf("resident %d bytes exceeds budget %d", m.BytesResident, m.BudgetBytes)
	}
	recordServing(b, map[string]float64{
		"hit_ratio":      m.HitRatio(),
		"resident_bytes": float64(m.BytesResident),
		"evictions":      float64(m.Evictions),
	})
}

// remoteChainRepo builds a bigChainRepo-style history on the chunked
// remote tier: an in-process object server with optional fault knobs and
// a repository whose backend is a remote client against it.
func remoteChainRepo(b *testing.B, versions, rows int, opts remote.Options, tune func(*remote.Server)) (*repo.Repo, *remote.Store) {
	b.Helper()
	srv := remote.NewServer()
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	if opts.HTTPClient == nil {
		opts.HTTPClient = ts.Client()
	}
	if opts.RetryBackoff == 0 {
		opts.RetryBackoff = time.Millisecond
	}
	client := remote.New(ts.URL, opts)
	r, err := repo.InitBackend(client)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = fmt.Sprintf("row-%06d,%016x,%016x", i, rng.Uint64(), rng.Uint64())
	}
	var buf bytes.Buffer
	for v := 0; v < versions; v++ {
		if v > 0 {
			for k := 0; k < 4; k++ {
				lines[rng.Intn(rows)] = fmt.Sprintf("edit-%04d-%d,%016x", v, k, rng.Uint64())
			}
		}
		buf.Reset()
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if _, err := r.Commit(repo.DefaultBranch, append([]byte(nil), buf.Bytes()...), "v"); err != nil {
			b.Fatal(err)
		}
	}
	if tune != nil {
		tune(srv)
	}
	return r, client
}

// BenchmarkRemoteTieredCheckout measures the three regimes of the remote
// tier on the same delta-chain checkout: every chunk paid over HTTP
// (cold-remote), the near-tier chunk cache absorbing repeat reads
// (near-tier-hit), and a periodically slow object server with hedged
// reads racing the stragglers (hedged-slow-chunk). The recorded chunk,
// hit and hedge counters feed BENCH_serving.json alongside the latency.
func BenchmarkRemoteTieredCheckout(b *testing.B) {
	const versions, rows = 8, 4000
	checkoutAll := func(b *testing.B, r *repo.Repo) {
		b.Helper()
		for v := 0; v < versions; v++ {
			if _, err := r.Checkout(v); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("cold-remote", func(b *testing.B) {
		r, client := remoteChainRepo(b, versions, rows, remote.Options{
			CacheBytes: -1, // no near tier: every chunk is an HTTP fetch
			HedgeAfter: -1,
		}, nil)
		start := client.TierStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkoutAll(b, r)
		}
		b.StopTimer()
		st := client.TierStats()
		recordServing(b, map[string]float64{
			"chunk_fetches/op": float64(st.ChunkFetches-start.ChunkFetches) / float64(b.N),
			"fetched_bytes/op": float64(st.BytesFetched-start.BytesFetched) / float64(b.N),
			"dedup_ratio":      st.DedupRatio(),
		})
	})
	b.Run("near-tier-hit", func(b *testing.B) {
		r, client := remoteChainRepo(b, versions, rows, remote.Options{
			HedgeAfter: -1, // default 32 MiB cache holds the whole chain
		}, nil)
		checkoutAll(b, r) // warm the near tier
		start := client.TierStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkoutAll(b, r)
		}
		b.StopTimer()
		st := client.TierStats()
		fetches := float64(st.ChunkFetches - start.ChunkFetches)
		hits := float64(st.ChunkHits - start.ChunkHits)
		recordServing(b, map[string]float64{
			"chunk_fetches/op": fetches / float64(b.N),
			"hit_ratio":        hits / (hits + fetches),
		})
		if fetches != 0 {
			b.Fatalf("warm near tier still fetched %v chunks over HTTP", fetches)
		}
	})
	b.Run("hedged-slow-chunk", func(b *testing.B) {
		r, client := remoteChainRepo(b, versions, rows, remote.Options{
			CacheBytes: -1,
			HedgeAfter: 2 * time.Millisecond,
		}, func(srv *remote.Server) {
			srv.SetSlowEvery(5, 50*time.Millisecond) // every 5th GET stalls
		})
		start := client.TierStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkoutAll(b, r)
		}
		b.StopTimer()
		st := client.TierStats()
		recordServing(b, map[string]float64{
			"chunk_fetches/op": float64(st.ChunkFetches-start.ChunkFetches) / float64(b.N),
			"hedged/op":        float64(st.Hedged-start.Hedged) / float64(b.N),
			"hedge_wins/op":    float64(st.HedgeWins-start.HedgeWins) / float64(b.N),
		})
	})
}

// BenchmarkReplicaScaleOut measures horizontal read scale-out: the same
// Zipf checkout workload served through the vmsproxy consistent-hash
// router at 1, 2, and 4 metalog-tailing replicas, each with the same
// per-replica cache budget. Scale-out pays because adding replicas adds
// aggregate cache: the hot set thrashes one replica's LRU but fits across
// two. The 2-vs-1 throughput ratio is asserted ≥ 1.6×, so the scaling
// property is CI-enforced alongside the recorded trajectory.
func BenchmarkReplicaScaleOut(b *testing.B) {
	sc := bench.DefaultReplicaScale()
	rows := map[int]bench.ReplicaRow{}
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("replicas=%d", n), func(b *testing.B) {
			var row bench.ReplicaRow
			for i := 0; i < b.N; i++ {
				var err error
				row, err = bench.ReplicasOne(sc, n)
				if err != nil {
					b.Fatal(err)
				}
			}
			rows[n] = row
			recordServing(b, map[string]float64{
				"throughput_rps":    row.Throughput,
				"p50_ms":            float64(row.P50) / float64(time.Millisecond),
				"p99_ms":            float64(row.P99) / float64(time.Millisecond),
				"hit_ratio":         row.HitRatio,
				"replica_share":     row.ReplicaShare,
				"max_replica_share": row.MaxShare,
			})
		})
	}
	one, two := rows[1], rows[2]
	if ratio := two.Throughput / one.Throughput; ratio < 1.6 {
		b.Fatalf("2 replicas serve only %.2fx the checkout throughput of 1 (want ≥ 1.6x): %.0f vs %.0f rps; hit ratio %.3f vs %.3f; busiest of 2 replicas served %.2f",
			ratio, two.Throughput, one.Throughput, two.HitRatio, one.HitRatio, two.MaxShare)
	}
}

// bigChainRepo commits versions in a line where every payload is rows
// ~100-byte CSV lines (so rows ≈ payload KiB × 10), each version editing a
// handful of lines — the regime where a delta chain is deep or a payload is
// large while the deltas stay small. The checkout cache stays disabled so
// every measured op pays the full reconstruction.
func bigChainRepo(b *testing.B, versions, rows int) *repo.Repo {
	b.Helper()
	r, err := repo.InitBackend(store.NewMemStore())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	lines := make([]string, rows)
	for i := range lines {
		lines[i] = fmt.Sprintf("row-%08d,%016x,%016x,%016x,%016x,%016x", i, rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64())
	}
	var buf bytes.Buffer
	for v := 0; v < versions; v++ {
		if v > 0 {
			for k := 0; k < 4; k++ {
				lines[rng.Intn(rows)] = fmt.Sprintf("edit-%04d-%d,%016x", v, k, rng.Uint64())
			}
		}
		buf.Reset()
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if _, err := r.Commit(repo.DefaultBranch, append([]byte(nil), buf.Bytes()...), "v"); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// memPerOp runs fn b.N times and returns (bytes/op, allocs/op) measured via
// runtime.MemStats deltas — unlike b.ReportAllocs this lets the benchmark
// assert on the numbers, which is how the streaming-vs-buffered memory gap
// is kept from regressing silently.
func memPerOp(b *testing.B, fn func()) (bytesOp, allocsOp float64) {
	b.Helper()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N),
		float64(after.Mallocs-before.Mallocs) / float64(b.N)
}

// BenchmarkStreamingCheckout pits the zero-copy checkout stream against the
// buffered path on the two shapes that hurt it most: one large payload
// behind a short chain (per-request memory should be windows, not the
// payload) and a deep chain over a medium payload (memory should stay flat
// in chain depth, one bufio window per stage). The buffered run records its
// bytes/op first; the streaming run then asserts the ≥10× separation on the
// large payload, so the memory property is CI-enforced, not just plotted.
func BenchmarkStreamingCheckout(b *testing.B) {
	scenarios := []struct {
		name     string
		versions int
		rows     int
		assert   bool // streaming must beat buffered ≥10× in bytes/op
	}{
		{"payload=8MiB_chain=4", 4, 84000, true},
		{"payload=1MiB_chain=48", 48, 10500, false},
	}
	for _, sc := range scenarios {
		r := bigChainRepo(b, sc.versions, sc.rows)
		tip := sc.versions - 1
		payload, err := r.Checkout(tip)
		if err != nil {
			b.Fatal(err)
		}
		wantLen := int64(len(payload))
		var bufferedBytes float64
		b.Run(sc.name+"/buffered", func(b *testing.B) {
			bytesOp, allocsOp := memPerOp(b, func() {
				p, err := r.Checkout(tip)
				if err != nil || int64(len(p)) != wantLen {
					b.Fatalf("Checkout: %v (len %d)", err, len(p))
				}
			})
			bufferedBytes = bytesOp
			recordServing(b, map[string]float64{"bytes/op": bytesOp, "allocs/op": allocsOp})
		})
		b.Run(sc.name+"/streaming", func(b *testing.B) {
			window := make([]byte, 64<<10)
			bytesOp, allocsOp := memPerOp(b, func() {
				rc, size, err := r.CheckoutStream(tip)
				if err != nil {
					b.Fatalf("CheckoutStream: %v", err)
				}
				n, err := io.CopyBuffer(io.Discard, rc, window)
				rc.Close()
				if err != nil || n != wantLen || size != wantLen {
					b.Fatalf("drain: %v (%d of %d bytes, size %d)", err, n, wantLen, size)
				}
			})
			recordServing(b, map[string]float64{"bytes/op": bytesOp, "allocs/op": allocsOp})
			if sc.assert && bufferedBytes > 0 && bytesOp*10 > bufferedBytes {
				b.Fatalf("streaming allocates %.0f B/op vs buffered %.0f B/op — less than the required 10× separation", bytesOp, bufferedBytes)
			}
		})
	}
}
