package costs

import (
	"cmp"
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"versiondb/internal/delta"
)

// PairSize is one memoized pair of payloads (S, U), S < U: the encoded
// sizes of the one-way line deltas S→U (Fwd) and U→S (Bwd), -1 where
// LineDiffs reveals no edge (into a payload that is not delta.LineExact).
type PairSize struct {
	S, U     int32
	Fwd, Bwd int
}

// PairSizes memoizes LineDiffs' work: pair sizes sorted by (S, U), each
// pair at most once. Pairs are named by payload index, so a memo holds
// only while every index keeps naming the same payload — in a repository,
// whose version ids are append-only and whose payloads are immutable, for
// good. A memo is never modified once shared: With builds a new one.
type PairSizes []PairSize

// Lookup returns the memoized sizes of the pair (s, u), s < u.
func (m PairSizes) Lookup(s, u int) (fwd, bwd int, ok bool) {
	i, ok := slices.BinarySearchFunc(m, PairSize{S: int32(s), U: int32(u)}, comparePairs)
	if !ok {
		return 0, 0, false
	}
	return m[i].Fwd, m[i].Bwd, true
}

// With returns the union of m and more without modifying either; on a
// pair both hold, more's sizes win. When one of them is empty it returns
// the other.
func (m PairSizes) With(more PairSizes) PairSizes {
	if len(more) == 0 {
		return m
	}
	if len(m) == 0 {
		return more
	}
	out := make(PairSizes, 0, len(m)+len(more))
	i, j := 0, 0
	for i < len(m) && j < len(more) {
		switch c := comparePairs(m[i], more[j]); {
		case c < 0:
			out = append(out, m[i])
			i++
		case c == 0:
			i++
		default:
			out = append(out, more[j])
			j++
		}
	}
	return append(append(out, m[i:]...), more[j:]...)
}

// comparePairs orders memo entries by (S, U).
func comparePairs(a, b PairSize) int {
	return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.U, b.U))
}

// lineTables counts the LineTables LineDiffs has built, so tests can see
// that a fully memoized call differences nothing.
var lineTables atomic.Int64

// LineDiffs builds the directed cost matrix of one-way line deltas among
// payloads: ⟨Δ, Φ⟩ is the payload size on the diagonal and, for every
// target u listed in pairs[s] (s < u), the encoded delta sizes s→u and
// u→s. It is the one sizing path behind Optimize's matrix and the
// content-backed experiments.
//
// Pairs found in known (nil for none) are taken from it; only the rest
// are sized, and LineDiffs returns those as fresh, ready to merge into
// the memo with known.With(fresh). The matrix is the same either way.
//
// The lines of the payloads that unsized pairs touch are interned once
// (delta.LineTable); when every pair is known, nothing is. The pairs fan
// out across workers goroutines, each with its own differ scratch; ctx is
// checked once per pair, and on cancellation LineDiffs returns ctx's
// error after every worker has exited.
//
// No delta edge enters a payload that is not delta.LineExact: a line delta
// rebuilds only the canonical line form, so such a version can only be
// materialized.
func LineDiffs(ctx context.Context, payloads [][]byte, pairs [][]int, known PairSizes, workers int) (m *Matrix, fresh PairSizes, err error) {
	n := len(payloads)
	m = NewMatrix(n, true)
	exact := make([]bool, n)
	for v, p := range payloads {
		m.SetFull(v, float64(len(p)), float64(len(p)))
		exact[v] = delta.LineExact(p)
	}
	// fresh starts as every unknown pair marked edgeless; diff indexes the
	// ones with a line-exact end, which need differencing, and touched
	// marks the payloads those read.
	var diff []int
	touched := make([]bool, n)
	for s, us := range pairs {
		for _, u := range us {
			if _, _, ok := known.Lookup(s, u); ok {
				continue
			}
			if exact[s] || exact[u] {
				diff = append(diff, len(fresh))
				touched[s], touched[u] = true, true
			}
			fresh = append(fresh, PairSize{S: int32(s), U: int32(u), Fwd: -1, Bwd: -1})
		}
	}
	if len(diff) > 0 {
		if err := sizePairs(ctx, payloads, fresh, diff, touched, exact, workers); err != nil {
			return nil, nil, err
		}
	}
	slices.SortFunc(fresh, comparePairs)
	for s, us := range pairs {
		for _, u := range us {
			fwd, bwd, ok := fresh.Lookup(s, u)
			if !ok {
				fwd, bwd, _ = known.Lookup(s, u)
			}
			if fwd >= 0 {
				m.SetDelta(s, u, float64(fwd), float64(fwd))
			}
			if bwd >= 0 {
				m.SetDelta(u, s, float64(bwd), float64(bwd))
			}
		}
	}
	return m, fresh, nil
}

// sizePairs fills in the sizes of the pairs fresh[i], i in diff, over a
// LineTable of the touched payloads; a size into a payload that is not
// line-exact stays -1.
func sizePairs(ctx context.Context, payloads [][]byte, fresh PairSizes, diff []int, touched, exact []bool, workers int) error {
	sub := make([][]byte, len(payloads))
	for v, t := range touched {
		if t {
			sub[v] = payloads[v]
		}
	}
	table := delta.NewLineTable(sub)
	lineTables.Add(1)
	workers = max(1, min(workers, len(diff)))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var scratch delta.Scratch
			for {
				i := int(next.Add(1) - 1)
				if i >= len(diff) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[w] = err
					return
				}
				p := &fresh[diff[i]]
				fwd, bwd := table.Sizes(int(p.S), int(p.U), &scratch)
				if exact[p.U] {
					p.Fwd = fwd
				}
				if exact[p.S] {
					p.Bwd = bwd
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
