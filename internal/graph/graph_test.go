package graph

import (
	"errors"
	"testing"
)

func TestAddEdgeDirectedAdjacency(t *testing.T) {
	g := New(3, true)
	g.AddEdge(0, 1, 10, 20)
	g.AddEdge(1, 2, 30, 40)
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if len(g.Out(0)) != 1 || g.Out(0)[0].To != 1 {
		t.Errorf("Out(0) = %v", g.Out(0))
	}
	if len(g.Out(1)) != 1 {
		t.Errorf("directed graph has reverse edges: %v", g.Out(1))
	}
	e := g.Out(0)[0]
	if e.Cost(ByStorage) != 10 || e.Cost(ByRecreate) != 20 {
		t.Errorf("edge costs (%g,%g), want (10,20)", e.Cost(ByStorage), e.Cost(ByRecreate))
	}
}

func TestAddEdgeUndirectedBothWays(t *testing.T) {
	g := New(3, false)
	g.AddEdge(0, 1, 10, 20)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1 (logical edges)", g.M())
	}
	if len(g.Out(1)) != 1 || g.Out(1)[0].To != 0 {
		t.Errorf("undirected reverse edge missing: %v", g.Out(1))
	}
	if got := len(g.Edges()); got != 1 {
		t.Errorf("Edges() returned %d, want 1", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []struct {
		name     string
		from, to int
	}{
		{"self-loop", 1, 1},
		{"from out of range", -1, 0},
		{"to out of range", 0, 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("AddEdge(%d,%d) did not panic", tc.from, tc.to)
				}
			}()
			New(3, true).AddEdge(tc.from, tc.to, 1, 1)
		})
	}
}

func TestWeightString(t *testing.T) {
	if ByStorage.String() != "storage" || ByRecreate.String() != "recreate" {
		t.Errorf("Weight.String broken: %v %v", ByStorage, ByRecreate)
	}
	if Weight(9).String() == "" {
		t.Errorf("unknown weight must still print")
	}
}

func chainTree() *Tree {
	// 0 → 1 → 2, 0 → 3
	tr := NewTree(4, 0)
	tr.SetEdge(Edge{From: 0, To: 1, Storage: 10, Recreate: 100})
	tr.SetEdge(Edge{From: 1, To: 2, Storage: 5, Recreate: 50})
	tr.SetEdge(Edge{From: 0, To: 3, Storage: 7, Recreate: 70})
	return tr
}

func TestTreeCosts(t *testing.T) {
	tr := chainTree()
	if got := tr.TotalStorage(); got != 22 {
		t.Errorf("TotalStorage = %g, want 22", got)
	}
	r := tr.RecreationCosts()
	want := []float64{0, 100, 150, 70}
	for v := range want {
		if r[v] != want[v] {
			t.Errorf("R[%d] = %g, want %g", v, r[v], want[v])
		}
	}
	if got := tr.SumRecreation(); got != 320 {
		t.Errorf("SumRecreation = %g, want 320", got)
	}
	if got := tr.MaxRecreation(); got != 150 {
		t.Errorf("MaxRecreation = %g, want 150", got)
	}
	freq := []float64{0, 2, 1, 3}
	if got := tr.WeightedSumRecreation(freq); got != 2*100+150+3*70 {
		t.Errorf("WeightedSumRecreation = %g, want %g", got, float64(2*100+150+3*70))
	}
}

func TestTreeStructureQueries(t *testing.T) {
	tr := chainTree()
	d := tr.Depths()
	wantD := []int{0, 1, 2, 1}
	for v := range wantD {
		if d[v] != wantD[v] {
			t.Errorf("Depths[%d] = %d, want %d", v, d[v], wantD[v])
		}
	}
	path := tr.PathFromRoot(2)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Errorf("PathFromRoot(2) = %v", path)
	}
	mat := tr.MaterializedSet()
	if len(mat) != 2 || mat[0] != 1 || mat[1] != 3 {
		t.Errorf("MaterializedSet = %v, want [1 3]", mat)
	}
	order := tr.TopoOrder()
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < 4; v++ {
		if p := tr.Parent[v]; p >= 0 && pos[p] > pos[v] {
			t.Errorf("TopoOrder puts child %d before parent %d", v, p)
		}
	}
}

func TestTreeValidate(t *testing.T) {
	tr := chainTree()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid tree rejected: %v", err)
	}
	// Missing parent.
	broken := NewTree(3, 0)
	broken.SetEdge(Edge{From: 0, To: 1})
	if err := broken.Validate(); !errors.Is(err, ErrNotSpanning) {
		t.Errorf("want ErrNotSpanning, got %v", err)
	}
	// Cycle 1→2→1.
	cyc := NewTree(3, 0)
	cyc.Parent[1] = 2
	cyc.Parent[2] = 1
	if err := cyc.Validate(); !errors.Is(err, ErrCycle) {
		t.Errorf("want ErrCycle, got %v", err)
	}
	// Root with a parent.
	badRoot := chainTree()
	badRoot.Parent[0] = 1
	if err := badRoot.Validate(); err == nil {
		t.Errorf("root with parent accepted")
	}
}

func TestTreeCloneIsDeep(t *testing.T) {
	tr := chainTree()
	c := tr.Clone()
	c.Parent[1] = 3
	c.Storage[1] = 99
	if tr.Parent[1] != 0 || tr.Storage[1] != 10 {
		t.Errorf("Clone shares storage with original")
	}
}

func TestRecreationCostsPanicsWhenDisconnected(t *testing.T) {
	tr := NewTree(2, 0)
	defer func() {
		if recover() == nil {
			t.Errorf("RecreationCosts on non-spanning tree did not panic")
		}
	}()
	tr.RecreationCosts()
}
