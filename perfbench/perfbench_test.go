package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// tiny shrinks a workload so a run takes a second or two.
func tiny(t *testing.T, name string, seed int64) *bench {
	t.Helper()
	sp, err := lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	sp.scale = scale{Forks: 2, Versions: 24, Rows: 20, Cols: 6, OpsPerEdge: 2}
	if sp.commit {
		sp.minOps, sp.detOps = cycleCommits, optimizeEvery
	} else {
		sp.minOps, sp.detOps, sp.warmOps = 60, 60, 20
	}
	return &bench{spec: sp, seed: seed, dur: time.Millisecond, setups: 2, out: newOutcome()}
}

// contract reads the metric names BENCHMARK.json promises.
func contract(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &c); err != nil {
		t.Fatal(err)
	}
	for _, m := range c.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range c.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(o *outcome) []string {
	var out []string
	for k := range o.metrics {
		out = append(out, k)
	}
	return out
}

func sameSet(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEveryMetricEmitted(t *testing.T) {
	endToEnd, perLayer := contract(t)
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			b := tiny(t, sp.name, 7)
			if err := b.run(traced); err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, traced, err)
			}
			if !b.out.correct() || b.out.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v", sp.name, traced, b.out.correct(), b.out.attempted, b.out.failed, b.out.errs)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if got := names(b.out); !sameSet(got, want) {
				t.Errorf("%s trace=%v: metrics %v, want %v", sp.name, traced, got, want)
			}
		}
	}
}

func TestGateTripsOnCorruptPayload(t *testing.T) {
	for _, sp := range specs {
		b := tiny(t, sp.name, 7)
		b.corrupt = true
		if err := b.run(false); err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if b.out.correct() || b.out.failed == 0 {
			t.Errorf("%s: corrupted payload passed the gate (correct=%v, failed=%d)", sp.name, b.out.correct(), b.out.failed)
		}
	}
}

// TestSameSeedSameCounters runs each read workload twice on one seed. The
// store counters of the deterministic prefix depend only on the seed and
// on the layout Optimize chose. Optimize itself breaks ties between equal
// costs in map order (costs.Matrix.EachDelta), so two runs may get
// layouts that differ in Σ recreation; the counters must agree whenever
// the layouts do.
func TestSameSeedSameCounters(t *testing.T) {
	for _, name := range []string{"hot_read", "cold_remote"} {
		var runs [2]*bench
		for i := range runs {
			runs[i] = tiny(t, name, 11)
			if err := runs[i].run(false); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		a, b := runs[0].out, runs[1].out
		layout := func(o *outcome) [2]float64 {
			return [2]float64{o.metrics["stored_bytes_per_user_byte"].Value, o.metrics["recreate_bytes_per_user_byte"].Value}
		}
		if layout(a) != layout(b) {
			t.Logf("%s: Optimize chose different layouts on one seed (%v vs %v); counters not compared", name, layout(a), layout(b))
			continue
		}
		if a.header["deterministic"] != b.header["deterministic"] {
			t.Errorf("%s: same seed, same layout, different store counters: %+v vs %+v", name, a.header["deterministic"], b.header["deterministic"])
		}
	}
}
