package graph

import "fmt"

// MCA computes a minimum-cost arborescence (directed minimum spanning tree)
// rooted at root, minimizing the selected weight. This is the directed-case
// solver for the paper's Problem 1 (§3 cites Edmonds and Tarjan). It runs
// Tarjan's O(E log V) form of Chu–Liu/Edmonds: every vertex keeps its
// in-arcs in a mergeable heap, a cycle of cheapest in-arcs is contracted as
// soon as a walk closes it, and undoing the contractions in reverse reads
// off the tree. Among in-arcs of equal adjusted weight the one added to g
// first wins, at every level of contraction.
//
// It returns an error when some vertex is unreachable from root.
func MCA(g *Graph, root int, w Weight) (*Tree, error) {
	if !g.Directed() {
		// An undirected graph's MCA is its MST.
		return PrimMST(g, root, w)
	}
	// One pass over the out-lists. An arc's id is its index; first[u] is
	// where u's arcs begin, which leads a chosen id back to its edge.
	arcs := make([]arc, 0, g.M())
	first := make([]int, g.N())
	for u, out := range g.out {
		first[u] = len(arcs)
		for _, e := range out {
			arcs = append(arcs, arc{u: u, v: e.To, w: e.Cost(w), id: len(arcs)})
		}
	}
	chosen, ok := tarjan(g.N(), root, arcs)
	if !ok {
		return nil, fmt.Errorf("graph: no arborescence rooted at %d (unreachable vertices)", root)
	}
	t := NewTree(g.N(), root)
	for _, id := range chosen {
		u := arcs[id].u
		t.SetEdge(g.out[u][id-first[u]])
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

// contraction records one contracted cycle: the super-vertex it became,
// the union-find time before its unions, and its cycle arcs as a range of
// the cycle-arc list.
type contraction struct {
	rep, time, from, to int
}

// tarjan returns the ids of the arcs forming a minimum arborescence over
// vertices [0,n) rooted at root, or ok=false when none exists. Ties between
// arcs of equal adjusted weight go to the lower index in arcs.
//
// Walks start from every vertex in turn and follow each super-vertex's
// cheapest in-arc until they reach the root or an earlier walk, or close a
// cycle, which is contracted at once: its members' heaps merge, each
// shifted down by the weight of the member's own cycle arc, and the walk
// goes on from the new super-vertex.
func tarjan(n, root int, arcs []arc) ([]int, bool) {
	const unseen = -1
	h := newArcHeaps(n, root, arcs)
	sets := newRollbackUF(n)
	seen := make([]int, n) // the walk that reached each super-vertex
	for v := range seen {
		seen[v] = unseen
	}
	seen[root] = root
	in := make([]int, n)             // arc entering each settled super-vertex
	path := make([]int, 0, n)        // super-vertices of the current walk
	picked := make([]int, 0, n)      // picked[i] is the arc entering path[i]
	cycleArcs := make([]int, 0, 2*n) // arcs of every contracted cycle
	var cycles []contraction
	for s := 0; s < n; s++ {
		path, picked = path[:0], picked[:0]
		for u := s; seen[u] == unseen; {
			a, w := h.pop(u, func(a int32) bool { return sets.find(arcs[a].u) == u })
			if a < 0 {
				return nil, false
			}
			h.shift(u, -w)
			seen[u] = s
			path, picked = append(path, u), append(picked, a)
			u = sets.find(arcs[a].u)
			if seen[u] != s {
				continue
			}
			// The walk closed a cycle through u: unwind it off the path.
			c := contraction{time: sets.time(), from: len(cycleArcs)}
			merged := int32(-1)
			for {
				x := path[len(path)-1]
				merged = h.meld(merged, h.root[x])
				cycleArcs = append(cycleArcs, picked[len(picked)-1])
				path, picked = path[:len(path)-1], picked[:len(picked)-1]
				if !sets.union(u, x) {
					break
				}
			}
			u = sets.find(u)
			h.root[u] = merged
			seen[u] = unseen
			c.rep, c.to = u, len(cycleArcs)
			cycles = append(cycles, c)
		}
		for i, x := range path {
			in[sets.find(x)] = picked[i]
		}
	}
	// Expand: each cycle keeps its arcs except the one into the member the
	// cycle's own entering arc reaches.
	for i := len(cycles) - 1; i >= 0; i-- {
		c := cycles[i]
		enter := in[c.rep]
		sets.rollback(c.time)
		for _, a := range cycleArcs[c.from:c.to] {
			in[sets.find(arcs[a].v)] = a
		}
		in[sets.find(arcs[enter].v)] = enter
	}
	res := make([]int, 0, n-1)
	for v, a := range in {
		if v != root {
			res = append(res, arcs[a].id)
		}
	}
	return res, true
}

// arcHeaps keeps one skew min-heap of in-arcs per super-vertex, all in one
// node array indexed like the arc list, ordered by (adjusted weight, arc
// index). A node's add is a shift pending for its whole subtree, the node
// included, so shifting a heap costs O(1). Melds are amortized O(log E),
// and no operation recurses.
type arcHeaps struct {
	node []heapNode
	root []int32 // per vertex; -1 is the empty heap

	stack, kept []int32 // pop's scratch
}

type heapNode struct {
	key, add    float64
	left, right int32
}

func newArcHeaps(n, root int, arcs []arc) *arcHeaps {
	h := &arcHeaps{node: make([]heapNode, len(arcs)), root: make([]int32, n)}
	for v := range h.root {
		h.root[v] = -1
	}
	// Thread each vertex's in-arcs into a list through right, then meld
	// each list pairwise: O(in-degree) per vertex, where melding one arc
	// at a time costs O(log in-degree) per arc.
	for i, a := range arcs {
		h.node[i] = heapNode{key: a.w, left: -1, right: -1}
		if a.u != a.v && a.v != root {
			h.node[i].right, h.root[a.v] = h.root[a.v], int32(i)
		}
	}
	for v, x := range h.root {
		q := h.kept[:0]
		for x >= 0 {
			q = append(q, x)
			x, h.node[x].right = h.node[x].right, -1
		}
		h.root[v] = h.meldPairs(q)
	}
	return h
}

// settle applies x's pending shift to its key and hands it to its children.
func (h *arcHeaps) settle(x int32) {
	nd := &h.node[x]
	if nd.add == 0 {
		return
	}
	nd.key += nd.add
	if nd.left >= 0 {
		h.node[nd.left].add += nd.add
	}
	if nd.right >= 0 {
		h.node[nd.right].add += nd.add
	}
	nd.add = 0
}

// meld merges the heaps rooted at a and b and returns the new root: the
// top-down skew-heap merge, which walks the right spines once, swapping
// each visited node's children.
func (h *arcHeaps) meld(a, b int32) int32 {
	root := int32(-1)
	slot := &root
	for a >= 0 && b >= 0 {
		h.settle(a)
		h.settle(b)
		if ka, kb := h.node[a].key, h.node[b].key; kb < ka || kb == ka && b < a {
			a, b = b, a
		}
		*slot = a
		nd := &h.node[a]
		nd.left, nd.right = nd.right, nd.left
		slot, a = &nd.left, nd.left
	}
	if a < 0 {
		a = b
	}
	*slot = a
	return root
}

// pop removes v's cheapest in-arc for which loop is false and returns its
// index and adjusted weight, or -1 when there is none. The arcs loop
// rejects, self-loops of a contracted super-vertex, are dropped on the
// way: one walk removes every such arc above the cheapest kept one at O(1)
// each, and the kept subtrees it uncovers are melded pairwise.
func (h *arcHeaps) pop(v int, loop func(a int32) bool) (int, float64) {
	x := h.root[v]
	if x < 0 {
		return -1, 0
	}
	h.settle(x)
	if loop(x) {
		stack, kept := append(h.stack[:0], x), h.kept[:0]
		for len(stack) > 0 {
			y := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range [2]int32{h.node[y].left, h.node[y].right} {
				if c < 0 {
					continue
				}
				h.settle(c)
				if loop(c) {
					stack = append(stack, c)
				} else {
					kept = append(kept, c)
				}
			}
		}
		h.stack = stack
		if x = h.meldPairs(kept); x < 0 {
			h.root[v] = -1
			return -1, 0
		}
	}
	nd := h.node[x]
	h.root[v] = h.meld(nd.left, nd.right)
	return int(x), nd.key
}

// meldPairs melds the heaps in q pairwise in rounds, each meld's result
// joining the back of the queue, and returns the one heap left, or -1 when
// q is empty. q's storage is kept as scratch.
func (h *arcHeaps) meldPairs(q []int32) int32 {
	for i := 0; i+1 < len(q); i += 2 {
		q = append(q, h.meld(q[i], q[i+1]))
	}
	h.kept = q
	if len(q) == 0 {
		return -1
	}
	return q[len(q)-1]
}

// shift adds d to the adjusted weight of every arc left in v's heap.
func (h *arcHeaps) shift(v int, d float64) {
	if x := h.root[v]; x >= 0 {
		h.node[x].add += d
	}
}

// rollbackUF is a union-find by size without path compression, so its
// unions can be undone newest first.
type rollbackUF struct {
	parent, size []int32
	undo         []int32 // roots attached by union, newest last
}

func newRollbackUF(n int) *rollbackUF {
	f := &rollbackUF{parent: make([]int32, n), size: make([]int32, n), undo: make([]int32, 0, n)}
	for v := range f.parent {
		f.parent[v], f.size[v] = int32(v), 1
	}
	return f
}

func (f *rollbackUF) find(x int) int {
	for int(f.parent[x]) != x {
		x = int(f.parent[x])
	}
	return x
}

// union merges the sets of a and b and reports whether they were apart.
func (f *rollbackUF) union(a, b int) bool {
	a, b = f.find(a), f.find(b)
	if a == b {
		return false
	}
	if f.size[a] < f.size[b] {
		a, b = b, a
	}
	f.parent[b] = int32(a)
	f.size[a] += f.size[b]
	f.undo = append(f.undo, int32(b))
	return true
}

// time is the number of unions not yet undone.
func (f *rollbackUF) time() int { return len(f.undo) }

// rollback undoes unions, newest first, until only t remain.
func (f *rollbackUF) rollback(t int) {
	for len(f.undo) > t {
		b := f.undo[len(f.undo)-1]
		f.undo = f.undo[:len(f.undo)-1]
		a := f.parent[b]
		f.size[a] -= f.size[b]
		f.parent[b] = b
	}
}
