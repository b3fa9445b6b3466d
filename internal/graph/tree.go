package graph

import (
	"errors"
	"fmt"
)

// Tree is a spanning tree (arborescence, for directed inputs) rooted at
// Root, represented by a parent array. It is the paper's "storage graph"
// Gs (§2.2, Lemma 1): the edge Parent[i]→i carries the ⟨Δ, Φ⟩ weights of
// the chosen storage action for vertex i; an edge from the dummy root means
// the version is materialized.
type Tree struct {
	Root   int
	Parent []int // Parent[Root] == -1
	// Storage[i] and Recreate[i] are the Δ and Φ weights of edge Parent[i]→i.
	// Both are 0 at the root.
	Storage  []float64
	Recreate []float64
}

// NewTree returns a tree skeleton over n vertices rooted at root, with all
// non-root parents unset (-1). Callers fill in edges via SetEdge.
func NewTree(n, root int) *Tree {
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Storage:  make([]float64, n),
		Recreate: make([]float64, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	return t
}

// N returns the number of vertices the tree spans.
func (t *Tree) N() int { return len(t.Parent) }

// SetEdge records that v's parent is e.From with e's weights. e.To must be v.
func (t *Tree) SetEdge(e Edge) {
	t.Parent[e.To] = e.From
	t.Storage[e.To] = e.Storage
	t.Recreate[e.To] = e.Recreate
}

// EdgeTo returns the tree edge entering v.
func (t *Tree) EdgeTo(v int) Edge {
	return Edge{From: t.Parent[v], To: v, Storage: t.Storage[v], Recreate: t.Recreate[v]}
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	c := &Tree{
		Root:     t.Root,
		Parent:   append([]int(nil), t.Parent...),
		Storage:  append([]float64(nil), t.Storage...),
		Recreate: append([]float64(nil), t.Recreate...),
	}
	return c
}

// TotalStorage returns C = Σ Δ over all tree edges (paper §2.1).
func (t *Tree) TotalStorage() float64 {
	var sum float64
	for v := range t.Parent {
		if v != t.Root {
			sum += t.Storage[v]
		}
	}
	return sum
}

// RecreationCosts returns R, where R[i] is the recreation cost of vertex i:
// the sum of Φ weights on the root→i path. R[Root] is 0.
func (t *Tree) RecreationCosts() []float64 {
	n := len(t.Parent)
	r := make([]float64, n)
	done := make([]bool, n)
	done[t.Root] = true
	var stack []int
	for v := 0; v < n; v++ {
		if done[v] {
			continue
		}
		stack = stack[:0]
		u := v
		for !done[u] {
			stack = append(stack, u)
			u = t.Parent[u]
			if u < 0 {
				panic(fmt.Sprintf("graph: vertex %d not connected to root %d", v, t.Root))
			}
		}
		for i := len(stack) - 1; i >= 0; i-- {
			w := stack[i]
			r[w] = r[t.Parent[w]] + t.Recreate[w]
			done[w] = true
		}
	}
	return r
}

// SumRecreation returns Σ R_i over all vertices except skip (pass -1 to
// include all). The paper's experiments exclude the dummy root, whose
// recreation cost is 0 anyway, but some figures also exclude version 0.
func (t *Tree) SumRecreation() float64 {
	var sum float64
	for _, r := range t.RecreationCosts() {
		sum += r
	}
	return sum
}

// MaxRecreation returns max_i R_i.
func (t *Tree) MaxRecreation() float64 {
	var mx float64
	for _, r := range t.RecreationCosts() {
		if r > mx {
			mx = r
		}
	}
	return mx
}

// WeightedSumRecreation returns Σ freq[i]·R_i, the workload-weighted
// aggregate recreation cost (paper §5.3, Fig. 16). freq must have length N.
func (t *Tree) WeightedSumRecreation(freq []float64) float64 {
	var sum float64
	for i, r := range t.RecreationCosts() {
		sum += freq[i] * r
	}
	return sum
}

// Children returns the child adjacency lists of the tree.
func (t *Tree) Children() [][]int {
	ch := make([][]int, len(t.Parent))
	for v, p := range t.Parent {
		if p >= 0 {
			ch[p] = append(ch[p], v)
		}
	}
	return ch
}

// TopoOrder returns the vertices in root-first (preorder BFS) order.
func (t *Tree) TopoOrder() []int {
	ch := t.Children()
	order := make([]int, 0, len(t.Parent))
	queue := []int{t.Root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		queue = append(queue, ch[v]...)
	}
	return order
}

// Depths returns hop counts from the root.
func (t *Tree) Depths() []int {
	n := len(t.Parent)
	d := make([]int, n)
	for _, v := range t.TopoOrder() {
		if v == t.Root {
			d[v] = 0
		} else {
			d[v] = d[t.Parent[v]] + 1
		}
	}
	return d
}

// PathFromRoot returns the root→v vertex sequence, inclusive.
func (t *Tree) PathFromRoot(v int) []int {
	var rev []int
	for u := v; u != -1; u = t.Parent[u] {
		rev = append(rev, u)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ErrNotSpanning is returned by Validate when some vertex has no parent.
var ErrNotSpanning = errors.New("graph: tree does not span all vertices")

// ErrCycle is returned by Validate when the parent pointers contain a cycle.
var ErrCycle = errors.New("graph: parent pointers contain a cycle")

// Validate checks the Lemma 1 invariants: every vertex except the root has
// a parent, and following parents always reaches the root (no cycles).
func (t *Tree) Validate() error {
	n := len(t.Parent)
	if t.Root < 0 || t.Root >= n {
		return fmt.Errorf("graph: root %d out of range [0,%d)", t.Root, n)
	}
	if t.Parent[t.Root] != -1 {
		return fmt.Errorf("graph: root %d has parent %d", t.Root, t.Parent[t.Root])
	}
	state := make([]byte, n) // 0 unvisited, 1 in progress, 2 done
	state[t.Root] = 2
	var path []int
	for v := 0; v < n; v++ {
		if state[v] != 0 {
			continue
		}
		path = path[:0]
		u := v
		for state[u] == 0 {
			state[u] = 1
			path = append(path, u)
			p := t.Parent[u]
			if p == -1 {
				return fmt.Errorf("%w: vertex %d has no parent", ErrNotSpanning, u)
			}
			if p < 0 || p >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range parent %d", u, p)
			}
			u = p
		}
		if state[u] == 1 {
			return fmt.Errorf("%w: through vertex %d", ErrCycle, u)
		}
		for _, w := range path {
			state[w] = 2
		}
	}
	return nil
}

// MaterializedSet returns the vertices whose tree parent is the root — in the
// paper's storage-graph reading, the versions stored in their entirety.
func (t *Tree) MaterializedSet() []int {
	var mat []int
	for v, p := range t.Parent {
		if p == t.Root {
			mat = append(mat, v)
		}
	}
	return mat
}
