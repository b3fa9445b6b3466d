package costs

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"versiondb/internal/delta"
)

// chainPayloads returns n line-oriented payloads, each a small edit of the
// previous one, and pairs revealing every (s, s+1) and (s, s+2).
func chainPayloads(n int) ([][]byte, [][]int) {
	payloads := make([][]byte, n)
	pairs := make([][]int, n)
	lines := []string{"id,val"}
	for v := 0; v < n; v++ {
		lines = append(lines, fmt.Sprintf("%d,%d", v, v*v))
		if v%3 == 2 {
			lines = append(lines[:1], lines[2:]...)
		}
		var b []byte
		for _, l := range lines {
			b = append(b, l+"\n"...)
		}
		payloads[v] = b
		for u := v + 1; u <= v+2 && u < n; u++ {
			pairs[v] = append(pairs[v], u)
		}
	}
	return payloads, pairs
}

func TestLineDiffsMatchesEncodedSizes(t *testing.T) {
	payloads, pairs := chainPayloads(12)
	for _, workers := range []int{1, 3, 64} {
		m, _, err := LineDiffs(context.Background(), payloads, pairs, nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		for s, us := range pairs {
			if p, _ := m.Full(s); p.Storage != float64(len(payloads[s])) {
				t.Fatalf("workers=%d: Full(%d) = %+v, want size %d", workers, s, p, len(payloads[s]))
			}
			for _, u := range us {
				d := delta.DiffLines(payloads[s], payloads[u])
				fwd := float64(len(delta.Encode(d, true)))
				bwd := float64(len(delta.Encode(d.Invert(), true)))
				if p, ok := m.Delta(s, u); !ok || p != (Pair{fwd, fwd}) {
					t.Fatalf("workers=%d: Delta(%d,%d) = %+v (%v), want %v", workers, s, u, p, ok, fwd)
				}
				if p, ok := m.Delta(u, s); !ok || p != (Pair{bwd, bwd}) {
					t.Fatalf("workers=%d: Delta(%d,%d) = %+v (%v), want %v", workers, u, s, p, ok, bwd)
				}
			}
		}
	}
}

// TestLineDiffsNoEdgeIntoUnterminatedPayload: a payload without a trailing
// newline gets no incoming delta edge (it can only be materialized), but
// still serves as a delta source.
func TestLineDiffsNoEdgeIntoUnterminatedPayload(t *testing.T) {
	payloads := [][]byte{[]byte("a\nb\n"), []byte("a\nb\nc"), []byte("a\nc\n"), []byte("x"), nil}
	pairs := [][]int{{1, 2, 3, 4}, {2, 3}, nil, nil, nil}
	m, _, err := LineDiffs(context.Background(), payloads, pairs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		i, j int
		want bool
	}{
		{0, 1, false}, {1, 0, true}, {0, 2, true}, {2, 0, true},
		{1, 2, true}, {2, 1, false}, {1, 3, false}, {3, 1, false},
		{0, 3, false}, {3, 0, true}, {0, 4, true}, {4, 0, true},
	} {
		if _, ok := m.Delta(e.i, e.j); ok != e.want {
			t.Errorf("Delta(%d,%d) revealed = %v, want %v", e.i, e.j, ok, e.want)
		}
	}
}

func TestLineDiffsCanceled(t *testing.T) {
	payloads, pairs := chainPayloads(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := LineDiffs(ctx, payloads, pairs, nil, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("LineDiffs on a canceled context: err = %v, want context.Canceled", err)
	}
}

// TestLineDiffsMemo: pairs taken from the memo give the matrix a
// from-scratch call computes; only the pairs missing from it are sized and
// returned, and a call that finds every pair sizes none and builds no
// LineTable.
func TestLineDiffsMemo(t *testing.T) {
	payloads, pairs := chainPayloads(12)
	payloads[5] = append(payloads[5], "no newline"...)
	payloads[6] = append(payloads[6], "nor here"...)
	want, all, err := LineDiffs(context.Background(), payloads, pairs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, us := range pairs {
		n += len(us)
	}
	if len(all) != n || !slices.IsSortedFunc(all, comparePairs) {
		t.Fatalf("from scratch: %d pairs sized (sorted: %v), want all %d in order", len(all), slices.IsSortedFunc(all, comparePairs), n)
	}
	if fwd, bwd, _ := all.Lookup(5, 6); fwd != -1 || bwd != -1 {
		t.Fatalf("pair (5,6), neither end line-exact: sizes %d, %d, want -1, -1", fwd, bwd)
	}
	// every = 0 knows no pair, 1 every pair, and k every k-th pair.
	for _, every := range []int{0, 1, 2, 3} {
		t.Run(fmt.Sprint("every", every), func(t *testing.T) {
			var known, missing PairSizes
			for i, p := range all {
				if every > 0 && i%every == 0 {
					known = append(known, p)
				} else {
					missing = append(missing, p)
				}
			}
			tables := lineTables.Load()
			got, fresh, err := LineDiffs(context.Background(), payloads, pairs, known, 3)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(fresh, missing) {
				t.Fatalf("fresh = %v, want the %d missing pairs %v", fresh, len(missing), missing)
			}
			if built := lineTables.Load() - tables; (built == 0) != (len(missing) == 0) {
				t.Fatalf("%d LineTables built for %d missing pairs", built, len(missing))
			}
			if !slices.Equal(known.With(fresh), all) {
				t.Fatalf("known ∪ fresh differs from the from-scratch sizes")
			}
			want.EachDelta(func(i, j int, w Pair) {
				if g, ok := got.Delta(i, j); !ok || g != w {
					t.Fatalf("Delta(%d,%d) = %+v (%v), want %+v", i, j, g, ok, w)
				}
			})
			if got.NumDeltas() != want.NumDeltas() {
				t.Fatalf("%d deltas, want %d", got.NumDeltas(), want.NumDeltas())
			}
		})
	}
}

// TestLineDiffsTrustsMemo: a known pair is read, never re-differenced —
// the matrix carries the memo's sizes even where they are not the
// payloads' (a memo keyed by index is only as good as its caller's
// guarantee that indices name fixed payloads).
func TestLineDiffsTrustsMemo(t *testing.T) {
	payloads := [][]byte{[]byte("a\nb\n"), []byte("a\nc\n")}
	m, fresh, err := LineDiffs(context.Background(), payloads, [][]int{{1}, nil}, PairSizes{{S: 0, U: 1, Fwd: 7, Bwd: -1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != 0 {
		t.Fatalf("fresh = %v, want none", fresh)
	}
	if p, ok := m.Delta(0, 1); !ok || p != (Pair{7, 7}) {
		t.Fatalf("Delta(0,1) = %+v (%v), want the memo's 7", p, ok)
	}
	if _, ok := m.Delta(1, 0); ok {
		t.Fatalf("Delta(1,0) revealed, but the memo marks it -1")
	}
}

func TestPairSizesWith(t *testing.T) {
	a := PairSizes{{S: 0, U: 1, Fwd: 1, Bwd: 2}, {S: 2, U: 3, Fwd: 5, Bwd: 6}}
	b := PairSizes{{S: 1, U: 2, Fwd: 3, Bwd: 4}}
	if got := a.With(nil); !slices.Equal(got, a) {
		t.Fatalf("a.With(nil) = %v", got)
	}
	if got := PairSizes(nil).With(b); !slices.Equal(got, b) {
		t.Fatalf("nil.With(b) = %v", got)
	}
	got := a.With(b)
	if want := (PairSizes{a[0], b[0], a[1]}); !slices.Equal(got, want) || len(a) != 2 || len(b) != 1 {
		t.Fatalf("a.With(b) = %v, a = %v, b = %v: want %v, inputs untouched", got, a, b, want)
	}
	if got := got.With(PairSizes{{S: 1, U: 2, Fwd: 8, Bwd: 9}}); len(got) != 3 || got[1].Fwd != 8 {
		t.Fatalf("a pair both memos hold: %v, want one entry with the newer sizes", got)
	}
	for _, p := range got {
		if fwd, bwd, ok := got.Lookup(int(p.S), int(p.U)); !ok || fwd != p.Fwd || bwd != p.Bwd {
			t.Fatalf("Lookup(%d,%d) = %d, %d, %v", p.S, p.U, fwd, bwd, ok)
		}
	}
	if _, _, ok := got.Lookup(0, 2); ok {
		t.Fatalf("Lookup(0,2) found a pair the memo does not hold")
	}
}
