package graph

import "fmt"

// MCA computes a minimum-cost arborescence (directed minimum spanning tree)
// rooted at root using the Chu-Liu/Edmonds algorithm with cycle contraction,
// minimizing the selected weight. This is the directed-case solver for the
// paper's Problem 1 (§3 cites Edmonds/Tarjan; we implement the classic
// O(EV) contraction scheme, which is ample at reproduction scale). Each
// contraction level allocates its arc list once, sized to the level above;
// the O(E log V) Tarjan/Gabow–Galil–Spencer–Tarjan variant is still open.
//
// It returns an error when some vertex is unreachable from root.
func MCA(g *Graph, root int, w Weight) (*Tree, error) {
	if !g.Directed() {
		// An undirected graph's MCA is its MST.
		return PrimMST(g, root, w)
	}
	all := g.Edges()
	arcs := make([]arc, len(all))
	for i, e := range all {
		arcs[i] = arc{u: e.From, v: e.To, w: e.Cost(w), id: i}
	}
	chosen, ok := edmonds(g.N(), root, arcs)
	if !ok {
		return nil, fmt.Errorf("graph: no arborescence rooted at %d (unreachable vertices)", root)
	}
	t := NewTree(g.N(), root)
	for _, id := range chosen {
		t.SetEdge(all[id])
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("graph: internal MCA error: %w", err)
	}
	return t, nil
}

type arc struct {
	u, v int
	w    float64
	id   int // caller-level arc identifier
}

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
