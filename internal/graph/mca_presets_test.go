package graph_test

import (
	"math"
	"testing"

	"versiondb/internal/bench"
	"versiondb/internal/graph"
)

// TestMCAMatchesReferenceOnPresets runs MCA and the frozen Chu–Liu/Edmonds
// on the four evaluation presets at test and default scale, whose weights
// are not integers. The heaps' lazy shifts round in another order than the
// reference's level-by-level subtraction, so near-ties may resolve apart:
// MCA must return a valid arborescence of the reference's total weight to
// within 1e-9 relative.
func TestMCAMatchesReferenceOnPresets(t *testing.T) {
	for _, scale := range []bench.Scale{bench.TestScale(), bench.DefaultScale()} {
		if testing.Short() && scale != bench.TestScale() {
			continue
		}
		sets, err := bench.BuildAll(scale, true)
		if err != nil {
			t.Fatalf("BuildAll: %v", err)
		}
		for _, d := range sets {
			for _, w := range []graph.Weight{graph.ByStorage, graph.ByRecreate} {
				g := d.Inst.G
				got, err := graph.MCA(g, 0, w)
				if err != nil {
					t.Fatalf("%s n=%d %v: MCA: %v", d.Name, g.N(), w, err)
				}
				want, err := graph.ReferenceMCA(g, 0, w)
				if err != nil {
					t.Fatalf("%s n=%d %v: reference: %v", d.Name, g.N(), w, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s n=%d %v: %v", d.Name, g.N(), w, err)
				}
				gw, ww := total(got, w), total(want, w)
				if math.Abs(gw-ww) > 1e-9*math.Abs(ww) {
					t.Errorf("%s n=%d %v: total %v, reference %v", d.Name, g.N(), w, gw, ww)
				}
			}
		}
	}
}

func total(t *graph.Tree, w graph.Weight) float64 {
	s := 0.0
	for v := range t.Parent {
		if v != t.Root {
			s += t.EdgeTo(v).Cost(w)
		}
	}
	return s
}
