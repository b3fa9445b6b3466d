package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"versiondb/internal/repo"
	"versiondb/internal/store"
)

// percentile returns the nearest-rank q-quantile of samples (sorted in
// place), in milliseconds.
func percentile(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	i = max(0, min(i, len(samples)-1))
	return ms(samples[i])
}

const (
	// minWindow is the fewest samples a window holds: enough that its p95
	// has ten samples beyond it.
	minWindow  = 200
	maxWindows = 10
)

// windows splits samples, in the order they were taken, into up to
// maxWindows consecutive windows of at least minWindow samples each (one
// window when there are fewer), so a stretch of a run slowed by something
// outside the program moves one window's figure, not the median of all.
func windows(n int) [][2]int {
	w := max(1, min(maxWindows, n/minWindow))
	out := make([][2]int, w)
	for i := range out {
		out[i] = [2]int{i * n / w, (i + 1) * n / w}
	}
	return out
}

// windowedPercentile is the median over windows of each window's
// q-quantile, in milliseconds.
func windowedPercentile(samples []time.Duration, q float64) float64 {
	var xs []float64
	for _, w := range windows(len(samples)) {
		xs = append(xs, percentile(append([]time.Duration(nil), samples[w[0]:w[1]]...), q))
	}
	return median(xs)
}

// beyond is how many samples lie above the q-quantile: the support of a
// tail percentile, which should be at least ten.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of float samples (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocated returns the bytes the process has allocated so far, read
// without stopping the world.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// counters is a snapshot of the repository's store-layer counters.
type counters struct {
	Hits, Misses, Evictions int64
	Deltas, BlobReads       int64
	Tier                    store.TierStats
}

func snapshot(r *repo.Repo) counters {
	cs := r.CacheMetrics()
	c := counters{
		Hits:      int64(cs.Hits),
		Misses:    int64(cs.Misses),
		Evictions: int64(cs.Evictions),
		Deltas:    r.DeltaApplications(),
		BlobReads: r.BlobReads(),
	}
	if st := r.Stats(); st.Remote != nil {
		c.Tier = *st.Remote
	}
	return c
}

func (c counters) plus(o counters, sign int64) counters {
	t := c.Tier
	u := o.Tier
	return counters{
		Hits:      c.Hits + sign*o.Hits,
		Misses:    c.Misses + sign*o.Misses,
		Evictions: c.Evictions + sign*o.Evictions,
		Deltas:    c.Deltas + sign*o.Deltas,
		BlobReads: c.BlobReads + sign*o.BlobReads,
		Tier: store.TierStats{
			ChunkFetches:  t.ChunkFetches + sign*u.ChunkFetches,
			ChunkHits:     t.ChunkHits + sign*u.ChunkHits,
			Hedged:        t.Hedged + sign*u.Hedged,
			HedgeWins:     t.HedgeWins + sign*u.HedgeWins,
			Retries:       t.Retries + sign*u.Retries,
			ChunksStored:  t.ChunksStored + sign*u.ChunksStored,
			ChunksDeduped: t.ChunksDeduped + sign*u.ChunksDeduped,
			BytesFetched:  t.BytesFetched + sign*u.BytesFetched,
			BytesStored:   t.BytesStored + sign*u.BytesStored,
			BytesDeduped:  t.BytesDeduped + sign*u.BytesDeduped,
		},
	}
}

// meter accumulates store counters across layout epochs. Every Optimize
// swap installs a fresh layout whose cache and delta counters start at
// zero (blob reads carry over), so a plain before/after difference across
// a swap is wrong; instead each epoch's difference is taken separately
// and the epochs are summed.
type meter struct {
	r          *repo.Repo
	start, acc counters
}

func newMeter(r *repo.Repo) *meter { return &meter{r: r, start: snapshot(r)} }

// cut closes the current epoch; call it just before a swap.
func (m *meter) cut() { m.acc = m.acc.plus(snapshot(m.r).plus(m.start, -1), 1) }

// restart opens a new epoch; call it just after a swap.
func (m *meter) restart() { m.start = snapshot(m.r) }

// total is the sum over closed epochs plus the open one so far.
func (m *meter) total() counters { return m.acc.plus(snapshot(m.r).plus(m.start, -1), 1) }

// speed rescales timings to a reference machine speed. On a shared VM the
// whole machine runs slower while neighbours are busy, by a fifth or more
// for stretches of seconds, and a plain timing then measures the
// neighbours as much as the program. So the benchmark times a fixed
// kernel — compressing and hashing a fixed table, the same kinds of work a
// checkout does, with no allocation — between operations, and multiplies
// each operation's time by refKernel over the median of the last few
// kernel times. The program's code never runs in the kernel, so a change
// to the program moves the scaled timings as it moves the raw ones.
type speed struct {
	in     []byte
	out    bytes.Buffer
	w      *flate.Writer
	recent []time.Duration // the last speedWindow kernel times
	all    []float64       // every kernel time, ms, for the run header
}

const (
	// refKernel is the kernel's time at the reference speed: about its
	// time on a quiet 2-vCPU Xeon VM.
	refKernel   = 4 * time.Millisecond
	speedWindow = 5
)

// tick times the kernel once.
func (s *speed) tick() {
	if s.w == nil {
		rng := rand.New(rand.NewSource(1))
		var b bytes.Buffer
		for b.Len() < 64<<10 {
			fmt.Fprintf(&b, "%d,%c,%d,row %d\n", rng.Intn(100000), 'a'+rng.Intn(26), rng.Intn(10), b.Len())
		}
		s.in = b.Bytes()
		s.out.Grow(len(s.in))
		s.w, _ = flate.NewWriter(&s.out, flate.DefaultCompression) // fails only on a bad level
	}
	start := time.Now()
	s.out.Reset()
	s.w.Reset(&s.out)
	_, _ = s.w.Write(s.in) // writes to a bytes.Buffer cannot fail
	_ = s.w.Close()
	_ = sha256.Sum256(s.in)
	took := time.Since(start)
	s.recent = append(s.recent, took)
	if len(s.recent) > speedWindow {
		s.recent = s.recent[1:]
	}
	s.all = append(s.all, ms(took))
}

// ticks times the kernel n times.
func (s *speed) ticks(n int) {
	for range n {
		s.tick()
	}
}

// scale converts a timing taken at the current machine speed to the
// reference speed.
func (s *speed) scale(d time.Duration) time.Duration {
	if len(s.recent) == 0 {
		return d
	}
	xs := make([]float64, len(s.recent))
	for i, k := range s.recent {
		xs[i] = float64(k)
	}
	return time.Duration(float64(d) * float64(refKernel) / median(xs))
}
