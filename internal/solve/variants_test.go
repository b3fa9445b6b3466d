package solve

import (
	"testing"

	"versiondb/internal/costs"
)

// TestMultipleDeltaMechanisms: with a derivation-script variant (tiny Δ,
// huge Φ) alongside an explicit diff, the storage-minimizing solver picks
// the script while the recreation-minimizing solver avoids it — the §2.1
// "multiple delta mechanisms" scenario resolved per objective.
func TestMultipleDeltaMechanisms(t *testing.T) {
	m := costs.NewMatrix(2, true)
	m.SetFull(0, 1000, 1000)
	m.SetFull(1, 1010, 1010)
	m.SetDelta(0, 1, 50, 50)        // explicit diff
	m.AddDeltaVariant(0, 1, 2, 800) // script: cheaper to store, slow to run
	inst, err := NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	mca, err := MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got := mca.Tree.Storage[2]; got != 2 {
		t.Errorf("MCA chose Δ=%g for V1, want the script (2)", got)
	}
	// Under a tight recreation bound MP must fall back to the diff.
	s, err := solveSol(inst, Request{Solver: "mp", Theta: 1100})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Tree.Recreate[2]; got != 50 {
		t.Errorf("MP chose Φ=%g for V1, want the diff (50)", got)
	}
	if s.MaxR > 1100 {
		t.Errorf("MP bound violated")
	}
}

// TestHopVariantBoundsChainLength: Problem 6 on the hop-cost matrix is the
// bounded-diameter spanning tree — θ hops means chains of at most θ−1
// deltas below a materialized version.
func TestHopVariantBoundsChainLength(t *testing.T) {
	// A 6-version chain where deltas are far cheaper than full versions.
	n := 6
	m := costs.NewMatrix(n, false)
	for i := 0; i < n; i++ {
		m.SetFull(i, 1000, 1000)
	}
	for i := 0; i+1 < n; i++ {
		m.SetDelta(i, i+1, 10, 10)
	}
	hop := m.HopVariant()
	inst, err := NewInstance(hop)
	if err != nil {
		t.Fatal(err)
	}
	for _, theta := range []float64{1, 2, 3, 6} {
		s, err := solveSol(inst, Request{Solver: "mp", Theta: theta})
		if err != nil {
			t.Fatalf("MP(θ=%g hops): %v", theta, err)
		}
		for v, d := range s.Tree.Depths() {
			if v != Root && float64(d) > theta {
				t.Errorf("θ=%g: vertex %d at %d hops", theta, v, d)
			}
		}
		if s.MaxR > theta {
			t.Errorf("θ=%g: hop cost %g", theta, s.MaxR)
		}
	}
	// θ=1 forces everything materialized.
	s, err := solveSol(inst, Request{Solver: "mp", Theta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tree.MaterializedSet()); got != n {
		t.Errorf("θ=1 materialized %d of %d", got, n)
	}
	// θ=6 allows the full chain: one materialized version suffices.
	s6, err := solveSol(inst, Request{Solver: "mp", Theta: 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s6.Tree.MaterializedSet()); got != 1 {
		t.Errorf("θ=6 materialized %d, want 1", got)
	}
	if want := 1000.0 + 5*10; s6.Storage != want {
		t.Errorf("θ=6 storage %g, want %g", s6.Storage, want)
	}
}
