package graph

// edmonds below is the recursive O(VE) Chu–Liu/Edmonds, contracting every
// cycle of cheapest in-arcs level by level: the reference the differential
// tests hold tarjan to.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// edmonds returns the original-arc ids forming a minimum arborescence over
// vertices [0,n) rooted at root, or ok=false when none exists. It recurses
// on contracted graphs; each level translates its chosen ids back through
// the meta table recorded during contraction.
func edmonds(n, root int, arcs []arc) ([]int, bool) {
	const none = -1
	// Step 1: cheapest in-arc per vertex.
	bestW := make([]float64, n)
	bestA := make([]int, n) // index into arcs
	for v := 0; v < n; v++ {
		bestW[v] = Inf
		bestA[v] = none
	}
	for i, a := range arcs {
		if a.u == a.v || a.v == root {
			continue
		}
		if a.w < bestW[a.v] {
			bestW[a.v] = a.w
			bestA[a.v] = i
		}
	}
	for v := 0; v < n; v++ {
		if v != root && bestA[v] == none {
			return nil, false
		}
	}
	// Step 2: find cycles in the chosen in-arc graph.
	id := make([]int, n)   // contracted component id
	mark := make([]int, n) // walk marker
	for v := range id {
		id[v] = none
		mark[v] = none
	}
	comps := 0
	for v := 0; v < n; v++ {
		// Walk pre-chain from v until we hit the root, a marked vertex, or
		// close a cycle within this walk.
		u := v
		for u != root && id[u] == none && mark[u] == none {
			mark[u] = v
			u = arcs[bestA[u]].u
		}
		if u != root && id[u] == none && mark[u] == v {
			// Found a new cycle through u: assign one component id to it.
			for x := arcs[bestA[u]].u; x != u; x = arcs[bestA[x]].u {
				id[x] = comps
			}
			id[u] = comps
			comps++
		}
	}
	if comps == 0 {
		// No cycles: the chosen in-arcs form the arborescence.
		res := make([]int, 0, n-1)
		for v := 0; v < n; v++ {
			if v != root {
				res = append(res, arcs[bestA[v]].id)
			}
		}
		return res, true
	}
	// Assign ids to vertices not on any cycle.
	cycleComps := comps
	for v := 0; v < n; v++ {
		if id[v] == none {
			id[v] = comps
			comps++
		}
	}
	// Step 3: build the contracted arc list. meta[i] records, for contracted
	// arc i, the original arc index and its original head vertex. Neither
	// can outgrow arcs, so each is allocated once at that capacity.
	type metaEntry struct{ origIdx, origHead int }
	contracted := make([]arc, 0, len(arcs))
	meta := make([]metaEntry, 0, len(arcs))
	for i, a := range arcs {
		nu, nv := id[a.u], id[a.v]
		if nu == nv {
			continue
		}
		nw := a.w
		if id[a.v] < cycleComps { // head lies on a contracted cycle
			nw -= bestW[a.v]
		}
		contracted = append(contracted, arc{u: nu, v: nv, w: nw, id: len(meta)})
		meta = append(meta, metaEntry{origIdx: i, origHead: a.v})
	}
	sub, ok := edmonds(comps, id[root], contracted)
	if !ok {
		return nil, false
	}
	// Step 4: expand. Chosen contracted arcs map to original arcs; each
	// cycle keeps all its internal best arcs except the one entering at the
	// head of the arc chosen for that cycle.
	entryHead := make([]int, cycleComps)
	for c := range entryHead {
		entryHead[c] = none
	}
	res := make([]int, 0, n-1)
	for _, mid := range sub {
		m := meta[mid]
		res = append(res, arcs[m.origIdx].id)
		if c := id[m.origHead]; c < cycleComps {
			entryHead[c] = m.origHead
		}
	}
	for v := 0; v < n; v++ {
		if v == root || id[v] >= cycleComps {
			continue
		}
		if entryHead[id[v]] != v {
			res = append(res, arcs[bestA[v]].id)
		}
	}
	return res, true
}

// referenceMCA is MCA with edmonds in place of tarjan.
func referenceMCA(g *Graph, root int, w Weight) (*Tree, error) {
	all := g.Edges()
	chosen, ok := edmonds(g.N(), root, toArcs(all, w))
	if !ok {
		return nil, fmt.Errorf("graph: no arborescence rooted at %d (unreachable vertices)", root)
	}
	t := NewTree(g.N(), root)
	for _, id := range chosen {
		t.SetEdge(all[id])
	}
	return t, nil
}

func toArcs(edges []Edge, w Weight) []arc {
	arcs := make([]arc, len(edges))
	for i, e := range edges {
		arcs[i] = arc{u: e.From, v: e.To, w: e.Cost(w), id: i}
	}
	return arcs
}

// checkSameArcs fails t unless tarjan and edmonds agree on whether arcs
// hold an arborescence rooted at 0 and, when they do, choose the same arcs.
func checkSameArcs(t *testing.T, n int, arcs []arc) {
	t.Helper()
	got, gotOK := tarjan(n, 0, arcs)
	want, wantOK := edmonds(n, 0, arcs)
	if gotOK != wantOK {
		t.Fatalf("n=%d arcs=%v: tarjan ok=%v, edmonds ok=%v", n, arcs, gotOK, wantOK)
	}
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("n=%d arcs=%v: tarjan chose %v, edmonds %v", n, arcs, got, want)
	}
}

// randomArcs draws m arcs over n vertices with integer weights below
// maxW, so small maxW makes ties common; an arc from the root to each
// vertex is present with probability rootP.
func randomArcs(rng *rand.Rand, n, m, maxW int, rootP float64) []arc {
	var arcs []arc
	add := func(u, v int) {
		arcs = append(arcs, arc{u: u, v: v, w: float64(rng.Intn(maxW)), id: len(arcs)})
	}
	for v := 1; v < n; v++ {
		if rng.Float64() < rootP {
			add(0, v)
		}
	}
	for i := 0; i < m; i++ {
		add(rng.Intn(n), rng.Intn(n))
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	for i := range arcs {
		arcs[i].id = i
	}
	return arcs
}

// TestMCAMatchesReference holds tarjan to the frozen edmonds. With integer
// weights every adjusted weight is exact, so the tie rule alone decides
// and the arc sets must be identical; an unreachable vertex is an error on
// both. (Non-integer weights are checked against the reference in
// TestMCAMatchesReferenceOnPresets.)
func TestMCAMatchesReference(t *testing.T) {
	t.Run("tie-heavy", func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 5000; i++ {
			n := 2 + rng.Intn(10)
			checkSameArcs(t, n, randomArcs(rng, n, rng.Intn(5*n), 1+rng.Intn(4), 0.3+0.7*rng.Float64()))
		}
	})
	t.Run("version-graph", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := versionGraphInstance(rng, 50+rng.Intn(250), 1+rng.Intn(6))
			checkSameArcs(t, g.N(), toArcs(g.Edges(), ByStorage))
		}
	})
	t.Run("unreachable", func(t *testing.T) {
		// 3 and 4 feed each other but nothing reaches them.
		arcs := []arc{{0, 1, 1, 0}, {1, 2, 1, 1}, {3, 4, 1, 2}, {4, 3, 1, 3}, {2, 1, 0, 4}}
		checkSameArcs(t, 5, arcs)
		if _, ok := tarjan(5, 0, arcs); ok {
			t.Errorf("tarjan found an arborescence with 3 and 4 unreachable")
		}
	})
}

// FuzzMCAMatchesReference decodes the input into an arc list over at most
// 16 vertices with small integer weights and requires tarjan and edmonds
// to choose the identical arc set.
func FuzzMCAMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 5, 0, 2, 5, 1, 2, 1, 2, 1, 1})
	f.Add([]byte{5, 0, 1, 9, 1, 2, 0, 2, 3, 0, 3, 1, 0, 0, 3, 9, 3, 4, 2, 4, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 2 + int(data[0]%15)
		var arcs []arc
		for b := data[1:]; len(b) >= 3; b = b[3:] {
			arcs = append(arcs, arc{u: int(b[0]) % n, v: int(b[1]) % n, w: float64(b[2] % 8), id: len(arcs)})
		}
		checkSameArcs(t, n, arcs)
	})
}
