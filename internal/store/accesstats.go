package store

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// Defaults for AccessStats construction.
const (
	// DefaultHalfLife is the decay half-life of access counters: an access
	// recorded one half-life ago counts half as much as one recorded now,
	// so the derived weights track the *current* hot set rather than
	// all-time popularity.
	DefaultHalfLife = time.Hour
	// DefaultFlushEvery bounds how many recorded accesses may accumulate
	// before the counters are persisted through the sink.
	DefaultFlushEvery = 64
	// WeightSmoothing is the Laplace smoothing constant added to every
	// version's decayed count before normalization, so a never-accessed
	// version keeps a small positive weight (its recreation cost still
	// matters, just less).
	WeightSmoothing = 0.5
)

// VersionAccess is one version's decayed access count, as reported by
// AccessStats.TopK and surfaced through GET /stats.
type VersionAccess struct {
	Version int     `json:"version"`
	Count   float64 `json:"count"`
}

// AccessStats tracks per-version access frequency with exponential decay —
// the telemetry behind workload-aware optimization (the paper's Problem 6
// weights each version's recreation cost by how often it is accessed; this
// is where those frequencies come from in serving).
//
// Counters decay lazily: each version carries its count and the time that
// count was last touched, and every read folds the elapsed decay in, so
// Record is O(1) and nothing ever scans all versions on the serving path.
// The structure has its own mutex and performs no blob I/O, so the
// repository records accesses under its read lock without serializing
// checkouts behind each other.
//
// Counters persist through a sink (see SetSink): every FlushEvery records
// — and on every explicit Flush — the versions touched since the last
// flush are handed over as a sparse delta, so restarts keep (slightly
// stale) history. The data is advisory: a missing or corrupt document
// simply restarts telemetry from zero.
type AccessStats struct {
	// flushMu serializes flushes and is acquired before mu, so persisted
	// deltas can never go backward in time; the sink call itself happens
	// under flushMu only, never under mu — recorders are blocked by a
	// flush for no longer than the delta snapshot.
	flushMu sync.Mutex

	mu         sync.Mutex
	sink       func(delta []byte) error
	halfLife   time.Duration
	flushEvery int
	now        func() time.Time

	counts   []float64
	stamps   []time.Time
	total    uint64           // raw (undecayed) accesses ever recorded
	dirty    int              // records since last flush
	dirtySet map[int]struct{} // versions recorded since last flush
}

// accessStatsDoc is the full-state form (a snapshot's access section):
// counts are folded to SavedAt so the document needs only one timestamp.
type accessStatsDoc struct {
	HalfLifeSeconds float64   `json:"half_life_seconds"`
	Total           uint64    `json:"total"`
	SavedAt         time.Time `json:"saved_at"`
	Counts          []float64 `json:"counts"`
}

// accessDeltaDoc is the sparse flush form written through a sink (a
// metadata-log record): only the versions touched since the previous flush,
// with their absolute decayed counts folded to SavedAt. Replaying deltas in
// order over a base document reconstructs the counters without ever
// persisting the full O(versions) array on the commit path.
type accessDeltaDoc struct {
	HalfLifeSeconds float64         `json:"half_life_seconds"`
	Total           uint64          `json:"total"`
	SavedAt         time.Time       `json:"saved_at"`
	Sparse          map[int]float64 `json:"sparse"`
}

// NewAccessStats returns empty telemetry that persists nowhere until a
// sink is attached with SetSink.
func NewAccessStats() *AccessStats {
	return &AccessStats{
		halfLife:   DefaultHalfLife,
		flushEvery: DefaultFlushEvery,
		now:        time.Now,
	}
}

// LoadAccessStatsData restores telemetry from a raw full document (a
// metadata-log snapshot's access section). Any failure — nil data, corrupt
// JSON — yields fresh empty stats; telemetry is advisory. The result
// persists nowhere until a sink is attached with SetSink.
func LoadAccessStatsData(data []byte) *AccessStats {
	as := NewAccessStats()
	if len(data) == 0 {
		return as
	}
	var doc accessStatsDoc
	if json.Unmarshal(data, &doc) != nil {
		return as
	}
	if doc.HalfLifeSeconds > 0 {
		as.halfLife = time.Duration(doc.HalfLifeSeconds * float64(time.Second))
	}
	as.total = doc.Total
	as.counts = doc.Counts
	as.stamps = make([]time.Time, len(doc.Counts))
	for i := range as.stamps {
		as.stamps[i] = doc.SavedAt
	}
	return as
}

// SetSink routes flushes through fn: fn receives a sparse delta document
// (only versions touched since the previous flush) suitable for appending
// to a metadata log — O(dirty), not O(versions), per flush. Call before
// concurrent use.
func (a *AccessStats) SetSink(fn func(delta []byte) error) { a.sink = fn }

// ApplyDelta folds one sparse delta document (as produced by a sink-routed
// Flush) into the counters — the metadata-log replay path. Deltas carry
// absolute decayed counts, so applying them in append order is idempotent
// per version. Corrupt deltas are ignored: telemetry is advisory.
func (a *AccessStats) ApplyDelta(data []byte) {
	var doc accessDeltaDoc
	if json.Unmarshal(data, &doc) != nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if doc.HalfLifeSeconds > 0 {
		a.halfLife = time.Duration(doc.HalfLifeSeconds * float64(time.Second))
	}
	if doc.Total > a.total {
		a.total = doc.Total
	}
	for v, c := range doc.Sparse {
		if v < 0 {
			continue
		}
		a.grow(v)
		a.counts[v] = c
		a.stamps[v] = doc.SavedAt
	}
}

// MarshalDoc renders the full counter state as a document (counts folded to
// now) — the access section of a metadata-log compaction snapshot.
func (a *AccessStats) MarshalDoc() ([]byte, error) {
	a.mu.Lock()
	doc := a.fullDoc()
	a.mu.Unlock()
	data, err := json.Marshal(&doc)
	if err != nil {
		return nil, fmt.Errorf("store: access stats: %w", err)
	}
	return data, nil
}

// fullDoc folds every counter to now; callers hold mu.
func (a *AccessStats) fullDoc() accessStatsDoc {
	now := a.now()
	doc := accessStatsDoc{
		HalfLifeSeconds: a.halfLife.Seconds(),
		Total:           a.total,
		SavedAt:         now,
		Counts:          make([]float64, len(a.counts)),
	}
	for i, c := range a.counts {
		doc.Counts[i] = c * a.decayFactor(now.Sub(a.stamps[i]))
	}
	return doc
}

// SetHalfLife overrides the decay half-life (≤ 0 disables decay). Call
// before concurrent use.
func (a *AccessStats) SetHalfLife(d time.Duration) { a.halfLife = d }

// SetFlushEvery overrides how many records may accumulate before an
// automatic persist (≤ 0 disables automatic flushing). Call before
// concurrent use.
func (a *AccessStats) SetFlushEvery(n int) { a.flushEvery = n }

// SetClock injects a time source for tests. Call before concurrent use.
func (a *AccessStats) SetClock(now func() time.Time) { a.now = now }

// decayFactor returns the multiplier for a count last touched dt ago.
func (a *AccessStats) decayFactor(dt time.Duration) float64 {
	if a.halfLife <= 0 || dt <= 0 {
		return 1
	}
	return math.Exp2(-float64(dt) / float64(a.halfLife))
}

// grow extends the counter slices to cover version v; callers hold mu.
func (a *AccessStats) grow(v int) {
	for len(a.counts) <= v {
		a.counts = append(a.counts, 0)
		a.stamps = append(a.stamps, time.Time{})
	}
}

// Record counts one access of version v: a checkout served. Negative ids
// are ignored. Every FlushEvery records the counters are persisted; the
// recording goroutine pays that metadata write, but concurrent recorders
// are not held behind it (see flushMu).
func (a *AccessStats) Record(v int) {
	if v < 0 {
		return
	}
	a.mu.Lock()
	now := a.now()
	a.grow(v)
	a.counts[v] = a.counts[v]*a.decayFactor(now.Sub(a.stamps[v])) + 1
	a.stamps[v] = now
	a.total++
	a.dirty++
	if a.dirtySet == nil {
		a.dirtySet = map[int]struct{}{}
	}
	a.dirtySet[v] = struct{}{}
	flush := a.flushEvery > 0 && a.dirty >= a.flushEvery
	a.mu.Unlock()
	if flush {
		_ = a.Flush()
	}
}

// Snapshot returns every version's count decayed to now. The slice is a
// copy; reading it never blocks recorders for longer than the copy.
func (a *AccessStats) Snapshot() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	out := make([]float64, len(a.counts))
	for i, c := range a.counts {
		out[i] = c * a.decayFactor(now.Sub(a.stamps[i]))
	}
	return out
}

// Total returns the raw number of accesses ever recorded (undecayed).
func (a *AccessStats) Total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Weights derives normalized per-version access weights for a workload-aware
// solve over n versions: decayed counts (padded with zeros beyond the
// telemetry horizon, truncated to the solve's snapshot) are Laplace-smoothed
// by WeightSmoothing and scaled to mean 1, so Σ wᵢ = n and a uniform
// workload yields all-ones. When no accesses have been recorded at all it
// returns nil — "no signal", which callers treat as uniform weights.
func (a *AccessStats) Weights(n int) []float64 {
	if n <= 0 {
		return nil
	}
	counts := a.Snapshot()
	if len(counts) > n {
		counts = counts[:n]
	}
	var sum float64
	for _, c := range counts {
		sum += c
	}
	if sum <= 0 {
		return nil
	}
	w := make([]float64, n)
	norm := float64(n) / (sum + WeightSmoothing*float64(n))
	for i := range w {
		var c float64
		if i < len(counts) {
			c = counts[i]
		}
		w[i] = (c + WeightSmoothing) * norm
	}
	return w
}

// TopK returns the k versions with the highest decayed access counts,
// descending (ties broken by lower id); versions with zero count are
// omitted.
func (a *AccessStats) TopK(k int) []VersionAccess {
	if k <= 0 {
		return nil
	}
	counts := a.Snapshot()
	out := make([]VersionAccess, 0, len(counts))
	for v, c := range counts {
		if c > 0 {
			out = append(out, VersionAccess{Version: v, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Version < out[j].Version
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// Flush hands the counters touched since the last flush to the sink
// immediately; without a sink, or with nothing touched, it is a no-op.
// Counts are folded (decayed) to the flush time so the delta carries a
// single timestamp. The dirty counter resets before the sink is called: a
// failing sink postpones the next try until another FlushEvery records (or
// an explicit Flush) instead of retrying synchronously on every Record —
// telemetry loss is acceptable, serializing checkouts behind failing I/O
// is not.
func (a *AccessStats) Flush() error {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	a.mu.Lock()
	if a.sink == nil || a.dirty == 0 {
		a.mu.Unlock()
		return nil // nothing to persist, or nothing new since the last flush
	}
	a.dirty = 0
	now := a.now()
	doc := accessDeltaDoc{
		HalfLifeSeconds: a.halfLife.Seconds(),
		Total:           a.total,
		SavedAt:         now,
		Sparse:          make(map[int]float64, len(a.dirtySet)),
	}
	for v := range a.dirtySet {
		doc.Sparse[v] = a.counts[v] * a.decayFactor(now.Sub(a.stamps[v]))
	}
	a.dirtySet = nil
	a.mu.Unlock()
	data, err := json.Marshal(&doc)
	if err != nil {
		return fmt.Errorf("store: access stats: %w", err)
	}
	if err := a.sink(data); err != nil {
		return fmt.Errorf("store: access stats: %w", err)
	}
	return nil
}
