package store

import (
	"errors"
	"math"
	"testing"
	"time"
)

// fakeClock is an adjustable time source for decay tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func approx(a, b float64) bool               { return math.Abs(a-b) < 1e-9 }
func approxSlice(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestAccessStatsDecay(t *testing.T) {
	clk := newFakeClock()
	as := NewAccessStats()
	as.SetClock(clk.now)
	as.SetHalfLife(time.Hour)

	as.Record(0)
	if got := as.Snapshot(); !approx(got[0], 1) {
		t.Fatalf("fresh count = %v, want 1", got[0])
	}
	clk.advance(time.Hour)
	if got := as.Snapshot(); !approx(got[0], 0.5) {
		t.Fatalf("after one half-life count = %v, want 0.5", got[0])
	}
	as.Record(0) // decays the stored count, then adds 1
	if got := as.Snapshot(); !approx(got[0], 1.5) {
		t.Fatalf("after decayed re-record count = %v, want 1.5", got[0])
	}
	clk.advance(2 * time.Hour)
	if got := as.Snapshot(); !approx(got[0], 0.375) {
		t.Fatalf("after two more half-lives count = %v, want 0.375", got[0])
	}
	if as.Total() != 2 {
		t.Fatalf("total = %d, want 2 (raw, undecayed)", as.Total())
	}
}

func TestAccessStatsNoDecayWhenDisabled(t *testing.T) {
	clk := newFakeClock()
	as := NewAccessStats()
	as.SetClock(clk.now)
	as.SetHalfLife(0)
	as.Record(1)
	clk.advance(24 * time.Hour)
	if got := as.Snapshot(); !approx(got[1], 1) {
		t.Fatalf("undecayed count = %v, want 1", got[1])
	}
}

// TestAccessStatsWeights is the table-driven derivation spec: Laplace
// smoothing by WeightSmoothing, normalization to mean 1, zero-padding past
// the telemetry horizon, truncation to the snapshot size, and the
// zero-access nil fallback.
func TestAccessStatsWeights(t *testing.T) {
	cases := []struct {
		name    string
		records map[int]int // version → times recorded
		n       int
		want    []float64 // nil means "no signal → uniform fallback"
	}{
		{
			name:    "skewed three versions",
			records: map[int]int{0: 3, 1: 1},
			n:       3,
			// counts (3,1,0)+0.5 → (3.5,1.5,0.5), scaled by 3/(4+1.5).
			want: []float64{3.5 * 3 / 5.5, 1.5 * 3 / 5.5, 0.5 * 3 / 5.5},
		},
		{
			name:    "uniform accesses yield uniform weights",
			records: map[int]int{0: 2, 1: 2, 2: 2},
			n:       3,
			want:    []float64{1, 1, 1},
		},
		{
			name:    "zero accesses fall back to nil",
			records: nil,
			n:       4,
			want:    nil,
		},
		{
			name:    "padding past the telemetry horizon",
			records: map[int]int{0: 1},
			n:       2,
			// counts (1,0)+0.5 → (1.5,0.5), scaled by 2/(1+1).
			want: []float64{1.5, 0.5},
		},
		{
			name:    "truncation to the snapshot size",
			records: map[int]int{0: 1, 5: 7},
			n:       1,
			// only version 0 is in the snapshot: (1+0.5) * 1/(1+0.5) = 1.
			want: []float64{1},
		},
		{
			name:    "n zero yields nil",
			records: map[int]int{0: 1},
			n:       0,
			want:    nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			as := NewAccessStats()
			as.SetClock(newFakeClock().now) // frozen clock: no decay between records
			for v, times := range tc.records {
				for i := 0; i < times; i++ {
					as.Record(v)
				}
			}
			got := as.Weights(tc.n)
			if tc.want == nil {
				if got != nil {
					t.Fatalf("Weights(%d) = %v, want nil fallback", tc.n, got)
				}
				return
			}
			if !approxSlice(got, tc.want, 1e-9) {
				t.Fatalf("Weights(%d) = %v, want %v", tc.n, got, tc.want)
			}
			var sum float64
			for _, w := range got {
				sum += w
			}
			if !approx(sum, float64(tc.n)) {
				t.Fatalf("weights sum to %v, want mean 1 (Σ=%d)", sum, tc.n)
			}
		})
	}
}

func TestAccessStatsTopK(t *testing.T) {
	as := NewAccessStats()
	as.SetClock(newFakeClock().now)
	for v, times := range map[int]int{0: 1, 2: 5, 3: 5, 7: 2} {
		for i := 0; i < times; i++ {
			as.Record(v)
		}
	}
	top := as.TopK(3)
	if len(top) != 3 {
		t.Fatalf("TopK(3) returned %d entries", len(top))
	}
	// Ties (2 and 3, both count 5) break by lower id.
	if top[0].Version != 2 || top[1].Version != 3 || top[2].Version != 7 {
		t.Fatalf("TopK order = %+v, want versions 2,3,7", top)
	}
	if all := as.TopK(100); len(all) != 4 {
		t.Fatalf("TopK(100) = %d entries, want 4 (zero-count versions omitted)", len(all))
	}
}

// recordingSink collects the deltas a flush hands over and can replay
// them onto a fresh AccessStats, as metadata-log recovery does.
type recordingSink struct{ deltas [][]byte }

func (s *recordingSink) put(delta []byte) error {
	s.deltas = append(s.deltas, delta)
	return nil
}

func (s *recordingSink) reload() *AccessStats {
	as := LoadAccessStatsData(nil)
	for _, d := range s.deltas {
		as.ApplyDelta(d)
	}
	return as
}

func TestAccessStatsPersistence(t *testing.T) {
	clk := newFakeClock()
	sink := &recordingSink{}
	as := NewAccessStats()
	as.SetSink(sink.put)
	as.SetClock(clk.now)
	for i := 0; i < 3; i++ {
		as.Record(1)
	}
	as.Record(0)
	clk.advance(time.Hour)
	if err := as.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	re := sink.reload()
	re.SetClock(clk.now)
	if re.Total() != 4 {
		t.Fatalf("reloaded total = %d, want 4", re.Total())
	}
	// Counts were folded to the flush time; reloaded at the same instant
	// they must match the live snapshot.
	if got, want := re.Snapshot(), as.Snapshot(); !approxSlice(got, want, 1e-9) {
		t.Fatalf("reloaded snapshot = %v, want %v", got, want)
	}
}

// TestAccessStatsFlushNothingDirty: a Flush with nothing recorded since
// the last one hands the sink nothing, fresh or not.
func TestAccessStatsFlushNothingDirty(t *testing.T) {
	sink := &recordingSink{}
	as := NewAccessStats()
	as.SetSink(sink.put)
	if err := as.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if len(sink.deltas) != 0 {
		t.Fatalf("fresh Flush sent %d deltas, want 0", len(sink.deltas))
	}
	as.Record(0)
	for i := 0; i < 2; i++ {
		if err := as.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	if len(sink.deltas) != 1 {
		t.Fatalf("two Flushes after one Record sent %d deltas, want 1", len(sink.deltas))
	}
}

func TestAccessStatsAutoFlush(t *testing.T) {
	sink := &recordingSink{}
	as := NewAccessStats()
	as.SetSink(sink.put)
	as.SetClock(newFakeClock().now)
	as.SetFlushEvery(2)
	as.Record(0)
	if len(sink.deltas) != 0 {
		t.Fatal("flushed before reaching the threshold")
	}
	as.Record(0)
	if len(sink.deltas) != 1 {
		t.Fatalf("%d flushes at the threshold, want 1", len(sink.deltas))
	}
	if re := sink.reload(); re.Total() != 2 {
		t.Fatalf("auto-flushed total = %d, want 2", re.Total())
	}
}

// TestAccessStatsFlushFailureBacksOff pins the serving-path guarantee: a
// failing sink (the disk-full regime) must not make every subsequent
// Record retry the write synchronously (which would serialize all
// checkouts behind failing I/O) — the next attempt waits for another
// FlushEvery records.
func TestAccessStatsFlushFailureBacksOff(t *testing.T) {
	calls := 0
	as := NewAccessStats()
	as.SetSink(func([]byte) error {
		calls++
		return errors.New("disk full")
	})
	as.SetClock(newFakeClock().now)
	as.SetFlushEvery(2)
	for i := 0; i < 4; i++ {
		as.Record(0)
	}
	if calls != 2 {
		t.Fatalf("4 records at flushEvery=2 attempted %d writes, want exactly 2 (threshold-paced, not per-record retry)", calls)
	}
}

func TestLoadAccessStatsCorruptIsFresh(t *testing.T) {
	as := LoadAccessStatsData([]byte("{not json"))
	if as.Total() != 0 || len(as.Snapshot()) != 0 {
		t.Fatal("corrupt telemetry should restart from zero, not error")
	}
}
