// Package uf implements a union-find (disjoint set union) structure with
// union by rank and path compression. It backs Kruskal's minimum spanning
// tree algorithm. (The arborescence in internal/graph keeps a union-find
// of its own without path compression, since it must undo its unions.)
package uf

// UF is a disjoint-set forest over the integers [0, n).
type UF struct {
	parent []int
	rank   []byte
	count  int
}

// New returns a union-find structure over n singleton sets.
func New(n int) *UF {
	u := &UF{parent: make([]int, n), rank: make([]byte, n), count: n}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UF) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]] // path halving
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y and reports whether they were
// previously distinct.
func (u *UF) Union(x, y int) bool {
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return false
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
	u.count--
	return true
}

// Connected reports whether x and y are in the same set.
func (u *UF) Connected(x, y int) bool { return u.Find(x) == u.Find(y) }

// Count returns the number of disjoint sets.
func (u *UF) Count() int { return u.count }
