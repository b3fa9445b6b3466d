package remote

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// sortSliceP95 is the ring's p95 as first written: a heap copy of the
// filled part of the ring, sorted through sort.Slice. p95 must return
// what it returns.
func sortSliceP95(r *latencyRing) time.Duration {
	n := r.n
	if n > latencySamples {
		n = latencySamples
	}
	if n < minLatencySamples {
		return 0
	}
	sorted := make([]time.Duration, n)
	copy(sorted, r.samples[:n])
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(n*95)/100]
}

// TestLatencyRingP95 checks p95 against sortSliceP95 after every count of
// observations from 0 to 130, so the ring fills, wraps and wraps again,
// with latencies drawn from a small range so duplicates are common.
func TestLatencyRingP95(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r latencyRing
	for obs := 0; obs <= 130; obs++ {
		if obs > 0 {
			r.observe(time.Duration(rng.Intn(40)) * time.Millisecond)
		}
		if got, want := r.p95(), sortSliceP95(&r); got != want {
			t.Fatalf("after %d observations: p95 = %v, want %v", obs, got, want)
		}
		if obs < minLatencySamples && r.p95() != 0 {
			t.Fatalf("after %d observations: p95 = %v before minLatencySamples", obs, r.p95())
		}
	}
}
