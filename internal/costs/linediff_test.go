package costs

import (
	"context"
	"errors"
	"fmt"
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
		m, err := LineDiffs(context.Background(), payloads, pairs, workers)
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
	m, err := LineDiffs(context.Background(), payloads, pairs, 2)
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
	if _, err := LineDiffs(ctx, payloads, pairs, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("LineDiffs on a canceled context: err = %v, want context.Canceled", err)
	}
}
