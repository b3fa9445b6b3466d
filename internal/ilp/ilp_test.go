package ilp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"versiondb/internal/costs"
	"versiondb/internal/graph"
	"versiondb/internal/solve"
)

func paperInstance(t *testing.T) *solve.Instance {
	t.Helper()
	m := costs.NewMatrix(5, true)
	m.SetFull(0, 10000, 10000)
	m.SetFull(1, 10100, 10100)
	m.SetFull(2, 9700, 9700)
	m.SetFull(3, 9800, 9800)
	m.SetFull(4, 10120, 10120)
	m.SetDelta(0, 1, 200, 200)
	m.SetDelta(0, 2, 1000, 3000)
	m.SetDelta(1, 0, 500, 600)
	m.SetDelta(1, 3, 50, 400)
	m.SetDelta(1, 4, 800, 2500)
	m.SetDelta(2, 1, 1100, 3200)
	m.SetDelta(2, 4, 200, 550)
	m.SetDelta(3, 4, 900, 2500)
	m.SetDelta(4, 3, 800, 2300)
	inst, err := solve.NewInstance(m)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestBuildModelShape(t *testing.T) {
	inst := paperInstance(t)
	mod := Build(inst.G, 12000)
	if mod.N != 6 {
		t.Errorf("N = %d, want 6", mod.N)
	}
	// 5 materialization edges + 9 delta edges.
	if mod.NumBinaryVars() != 14 {
		t.Errorf("binary vars = %d, want 14", mod.NumBinaryVars())
	}
	if mod.BigC != 24000 {
		t.Errorf("BigC = %g, want 2θ", mod.BigC)
	}
	if mod.NumConstraints() != 5+14+5 {
		t.Errorf("constraints = %d", mod.NumConstraints())
	}
}

func TestWriteLPFormat(t *testing.T) {
	inst := paperInstance(t)
	mod := Build(inst.G, 12000)
	var buf bytes.Buffer
	if err := mod.WriteLP(&buf); err != nil {
		t.Fatalf("WriteLP: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Minimize",
		"Subject To",
		"Binary",
		"End",
		"x_0_1",      // materialization edge for V1
		"parent_1:",  // one-parent constraint
		"chain_1_2:", // big-C chain constraint (vertex 1 → vertex 2)
		"bound_1: r_1 <= 12000",
		"root: r_0 = 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("LP output missing %q", want)
		}
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := mod.WriteLP(&buf2); err != nil {
		t.Fatal(err)
	}
	if out != buf2.String() {
		t.Errorf("WriteLP not deterministic")
	}
}

func TestVerifyAcceptsSolverResults(t *testing.T) {
	inst := paperInstance(t)
	theta := 12000.0
	mod := Build(inst.G, theta)
	for _, name := range []string{"mp", "exact"} {
		s, err := solve.Solve(context.Background(), inst, solve.Request{Solver: name, Theta: theta})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		obj, err := mod.Verify(s.Tree)
		if err != nil {
			t.Errorf("%s solution rejected by ILP: %v", name, err)
		}
		if obj != s.Storage {
			t.Errorf("%s: ILP objective %g != solution storage %g", name, obj, s.Storage)
		}
	}
}

func TestVerifyRejectsViolations(t *testing.T) {
	inst := paperInstance(t)
	mod := Build(inst.G, 10120) // θ = SPT max recreation: only the SPT fits
	spt, err := solve.MinRecreation(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.Verify(spt.Tree); err != nil {
		t.Errorf("SPT rejected at its own bound: %v", err)
	}
	mca, err := solve.MinStorage(inst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mod.Verify(mca.Tree); err == nil {
		t.Errorf("MCA accepted at θ it violates")
	}
	// A tree using an edge outside the model.
	foreign := graph.NewTree(6, 0)
	for v := 1; v <= 5; v++ {
		foreign.SetEdge(graph.Edge{From: 0, To: v, Storage: 1, Recreate: 1})
	}
	foreign.SetEdge(graph.Edge{From: 5, To: 1, Storage: 1, Recreate: 1}) // 5→1 not revealed
	if _, err := mod.Verify(foreign); err == nil {
		t.Errorf("foreign edge accepted")
	}
	// Wrong size.
	if _, err := mod.Verify(graph.NewTree(3, 0)); err == nil {
		t.Errorf("wrong-size tree accepted")
	}
}
