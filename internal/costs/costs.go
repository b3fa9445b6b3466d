// Package costs models the paper's storage and recreation cost matrices
// Δ and Φ (§2.1). Diagonal entries ⟨Δii, Φii⟩ are the costs of storing and
// retrieving version i in its entirety ("materialized"); off-diagonal
// entries ⟨Δij, Φij⟩ are the costs of storing the delta from Vi to Vj and
// applying it. Matrices are sparse: entries not revealed by the differencing
// pass are unknown (treated as +Inf, i.e. absent edges), mirroring the
// paper's "revealing entries in the matrix" discussion.
package costs

import (
	"fmt"
	"math"
	"slices"

	"versiondb/internal/graph"
)

// Pair is a ⟨storage, recreation⟩ cost annotation.
type Pair struct {
	Storage  float64 // Δ
	Recreate float64 // Φ
}

// Scenario identifies the three cases of paper Table 1.
type Scenario int

const (
	// UndirectedProportional: Δ symmetric, Φ = Δ (Scenario 1).
	UndirectedProportional Scenario = iota
	// DirectedProportional: Δ asymmetric, Φ = Δ (Scenario 2).
	DirectedProportional
	// DirectedGeneral: Δ asymmetric, Φ independent of Δ (Scenario 3).
	DirectedGeneral
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case UndirectedProportional:
		return "undirected, Φ=Δ"
	case DirectedProportional:
		return "directed, Φ=Δ"
	case DirectedGeneral:
		return "directed, Φ≠Δ"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// Matrix holds the (sparse) Δ and Φ matrices for n versions, indexed 0..n-1.
type Matrix struct {
	n        int
	directed bool
	full     []Pair // diagonal entries; Storage<0 means unset
	deltas   map[[2]int]Pair
	// variants holds additional delta mechanisms per pair (§2.1's multiple
	// differencing algorithms); see AddDeltaVariant.
	variants map[[2]int][]Pair
}

// NewMatrix returns an empty cost matrix over n versions. When directed is
// false, SetDelta stores one canonical entry per unordered pair and lookups
// are symmetric.
func NewMatrix(n int, directed bool) *Matrix {
	m := &Matrix{
		n:        n,
		directed: directed,
		full:     make([]Pair, n),
		deltas:   make(map[[2]int]Pair),
	}
	for i := range m.full {
		m.full[i] = Pair{Storage: -1, Recreate: -1}
	}
	return m
}

// N returns the number of versions.
func (m *Matrix) N() int { return m.n }

// Directed reports whether the delta entries are asymmetric.
func (m *Matrix) Directed() bool { return m.directed }

// NumDeltas returns the number of revealed off-diagonal entries.
func (m *Matrix) NumDeltas() int { return len(m.deltas) }

// SetFull records the materialization costs ⟨Δii, Φii⟩ of version i.
func (m *Matrix) SetFull(i int, storage, recreate float64) {
	m.checkIndex(i)
	if storage < 0 || recreate < 0 {
		panic(fmt.Sprintf("costs: negative full cost for version %d", i))
	}
	m.full[i] = Pair{Storage: storage, Recreate: recreate}
}

// Full returns the materialization costs of version i and whether they are set.
func (m *Matrix) Full(i int) (Pair, bool) {
	m.checkIndex(i)
	p := m.full[i]
	return p, p.Storage >= 0
}

// SetDelta records the delta costs ⟨Δij, Φij⟩ from version i to version j.
// In the undirected case the entry also serves (j, i).
func (m *Matrix) SetDelta(i, j int, storage, recreate float64) {
	m.checkIndex(i)
	m.checkIndex(j)
	if i == j {
		panic(fmt.Sprintf("costs: SetDelta(%d,%d) on diagonal; use SetFull", i, j))
	}
	if storage < 0 || recreate < 0 {
		panic(fmt.Sprintf("costs: negative delta cost for (%d,%d)", i, j))
	}
	m.deltas[m.key(i, j)] = Pair{Storage: storage, Recreate: recreate}
}

// Delta returns the delta costs from i to j and whether they are revealed.
func (m *Matrix) Delta(i, j int) (Pair, bool) {
	m.checkIndex(i)
	m.checkIndex(j)
	if i == j {
		return Pair{}, false
	}
	p, ok := m.deltas[m.key(i, j)]
	return p, ok
}

// EachDelta calls fn for every revealed delta entry, in ascending (i, j)
// order so that solvers break cost ties the same way on every run. In the
// undirected case each unordered pair is visited once, in its canonical
// (i<j) orientation.
func (m *Matrix) EachDelta(fn func(i, j int, p Pair)) {
	for _, k := range sortedKeys(m.deltas, m.n) {
		fn(k[0], k[1], m.deltas[k])
	}
}

// sortedKeys returns the pair keys of a map over n versions in ascending
// (i, j) order. Keys are packed as i·n+j so the sort compares plain ints,
// which keeps it cheap next to building the graph.
func sortedKeys[V any](pairs map[[2]int]V, n int) [][2]int {
	packed := make([]int, 0, len(pairs))
	for k := range pairs {
		packed = append(packed, k[0]*n+k[1])
	}
	slices.Sort(packed)
	keys := make([][2]int, len(packed))
	for x, p := range packed {
		keys[x] = [2]int{p / n, p % n}
	}
	return keys
}

func (m *Matrix) key(i, j int) [2]int {
	if !m.directed && i > j {
		i, j = j, i
	}
	return [2]int{i, j}
}

func (m *Matrix) checkIndex(i int) {
	if i < 0 || i >= m.n {
		panic(fmt.Sprintf("costs: version index %d out of range [0,%d)", i, m.n))
	}
}

// Augment builds the paper's §2.2 graph G: vertex 0 is the dummy root V0,
// vertex i+1 is version i. Edge 0→(i+1) carries ⟨Δii, Φii⟩; for every
// revealed delta (i,j) an edge (i+1)→(j+1) carries ⟨Δij, Φij⟩.
// Every version must have its materialization cost set.
func (m *Matrix) Augment() (*graph.Graph, error) {
	g := graph.New(m.n+1, m.directed)
	for i := 0; i < m.n; i++ {
		p, ok := m.Full(i)
		if !ok {
			return nil, fmt.Errorf("costs: version %d has no materialization cost", i)
		}
		// Materialization edges are directed root→version even in the
		// undirected scenario; modeling them as undirected is harmless
		// because no optimal tree routes through V0.
		g.AddEdge(0, i+1, p.Storage, p.Recreate)
	}
	m.EachDelta(func(i, j int, p Pair) {
		g.AddEdge(i+1, j+1, p.Storage, p.Recreate)
	})
	// Additional delta mechanisms become parallel edges; graph solvers pick
	// per pair whichever mechanism their objective prefers.
	for _, k := range sortedKeys(m.variants, m.n) {
		for _, v := range m.variants[k] {
			g.AddEdge(k[0]+1, k[1]+1, v.Storage, v.Recreate)
		}
	}
	return g, nil
}

// Proportional reports whether Φ = c·Δ for a single constant c across all
// set entries (within rel tolerance), returning the constant.
func (m *Matrix) Proportional(tol float64) (float64, bool) {
	var c float64
	have := false
	check := func(p Pair) bool {
		if p.Storage == 0 {
			return p.Recreate == 0
		}
		r := p.Recreate / p.Storage
		if !have {
			c, have = r, true
			return true
		}
		return math.Abs(r-c) <= tol*math.Abs(c)
	}
	for i := 0; i < m.n; i++ {
		if p, ok := m.Full(i); ok && !check(p) {
			return 0, false
		}
	}
	for _, p := range m.deltas {
		if !check(p) {
			return 0, false
		}
	}
	if !have {
		return 1, true
	}
	return c, true
}

// TriangleViolation describes one violated triangle inequality (§3).
type TriangleViolation struct {
	P, Q, W int // version indices; W == -1 for the diagonal inequality
	Detail  string
}

// CheckTriangle verifies the two §3 triangle inequalities over every triple
// of *revealed* entries of the Δ matrix:
//
//	|Δpq − Δqw| ≤ Δpw ≤ Δpq + Δqw
//	|Δpp − Δpq| ≤ Δqq ≤ Δpp + Δpq
//
// It returns at most limit violations (limit ≤ 0 means all). Only meaningful
// for symmetric Δ; for directed matrices it checks the directed analogue
// Δpw ≤ Δpq + Δqw on revealed paths.
func (m *Matrix) CheckTriangle(limit int) []TriangleViolation {
	var out []TriangleViolation
	add := func(v TriangleViolation) bool {
		out = append(out, v)
		return limit > 0 && len(out) >= limit
	}
	const eps = 1e-9
	// Diagonal inequality over revealed pairs.
	for k, p := range m.deltas {
		i, j := k[0], k[1]
		fi, iok := m.Full(i)
		fj, jok := m.Full(j)
		if !iok || !jok {
			continue
		}
		if fj.Storage > fi.Storage+p.Storage+eps {
			if add(TriangleViolation{P: i, Q: j, W: -1,
				Detail: fmt.Sprintf("Δ%d%d=%g > Δ%d%d=%g + Δ%d%d=%g", j, j, fj.Storage, i, i, fi.Storage, i, j, p.Storage)}) {
				return out
			}
		}
		if !m.directed && fi.Storage > fj.Storage+p.Storage+eps {
			if add(TriangleViolation{P: j, Q: i, W: -1,
				Detail: fmt.Sprintf("Δ%d%d=%g > Δ%d%d=%g + Δ%d%d=%g", i, i, fi.Storage, j, j, fj.Storage, i, j, p.Storage)}) {
				return out
			}
		}
	}
	// Path inequality: for revealed (p,q), (q,w), (p,w).
	adj := make(map[int][]int)
	for k := range m.deltas {
		adj[k[0]] = append(adj[k[0]], k[1])
		if !m.directed {
			adj[k[1]] = append(adj[k[1]], k[0])
		}
	}
	get := func(i, j int) (Pair, bool) { return m.Delta(i, j) }
	for p, qs := range adj {
		for _, q := range qs {
			pq, _ := get(p, q)
			for _, w := range adj[q] {
				if w == p {
					continue
				}
				qw, ok1 := get(q, w)
				pw, ok2 := get(p, w)
				if !ok1 || !ok2 {
					continue
				}
				if pw.Storage > pq.Storage+qw.Storage+eps {
					if add(TriangleViolation{P: p, Q: q, W: w,
						Detail: fmt.Sprintf("Δ%d%d=%g > Δ%d%d=%g + Δ%d%d=%g", p, w, pw.Storage, p, q, pq.Storage, q, w, qw.Storage)}) {
						return out
					}
				}
			}
		}
	}
	return out
}

// TotalFullStorage returns Σ Δii — the storage of the naive everything-
// materialized solution, which is also the SPT total recreation lower bound
// when Φii equals version size.
func (m *Matrix) TotalFullStorage() float64 {
	var sum float64
	for i := 0; i < m.n; i++ {
		if p, ok := m.Full(i); ok {
			sum += p.Storage
		}
	}
	return sum
}

// AverageFullStorage returns the mean materialization cost.
func (m *Matrix) AverageFullStorage() float64 {
	if m.n == 0 {
		return 0
	}
	return m.TotalFullStorage() / float64(m.n)
}
