package graph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConnectedUndirected builds a connected undirected graph: a random
// spanning tree plus extra random edges, with positive integer weights.
func randomConnectedUndirected(rng *rand.Rand, n, extra int) *Graph {
	g := New(n, false)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, float64(1+rng.Intn(50)), float64(1+rng.Intn(50)))
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b, float64(1+rng.Intn(50)), float64(1+rng.Intn(50)))
		}
	}
	return g
}

// randomRootedDirected builds a directed graph where every vertex is
// reachable from 0: a random out-tree plus extra random arcs.
func randomRootedDirected(rng *rand.Rand, n, extra int) *Graph {
	g := New(n, true)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		g.AddEdge(u, v, float64(1+rng.Intn(50)), float64(1+rng.Intn(50)))
	}
	for i := 0; i < extra; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a != b {
			g.AddEdge(a, b, float64(1+rng.Intn(50)), float64(1+rng.Intn(50)))
		}
	}
	return g
}

func TestPrimKruskalAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		g := randomConnectedUndirected(rng, n, n)
		p, err := PrimMST(g, 0, ByStorage)
		if err != nil {
			t.Logf("Prim: %v", err)
			return false
		}
		k, err := KruskalMST(g, 0, ByStorage)
		if err != nil {
			t.Logf("Kruskal: %v", err)
			return false
		}
		if p.Validate() != nil || k.Validate() != nil {
			return false
		}
		if math.Abs(p.TotalStorage()-k.TotalStorage()) > 1e-9 {
			t.Logf("Prim %g vs Kruskal %g", p.TotalStorage(), k.TotalStorage())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteMinArborescence enumerates all parent assignments on ≤ 7 vertices.
func bruteMinArborescence(g *Graph, root int, w Weight) float64 {
	n := g.N()
	type cand struct {
		from int
		cost float64
	}
	in := make([][]cand, n)
	for v := 0; v < n; v++ {
		for _, e := range g.Out(v) {
			in[e.To] = append(in[e.To], cand{from: e.From, cost: e.Cost(w)})
		}
	}
	best := math.Inf(1)
	parent := make([]int, n)
	var rec func(v int, cost float64)
	rec = func(v int, cost float64) {
		if cost >= best {
			return
		}
		if v == n {
			// Check tree: every vertex reaches root.
			for u := 0; u < n; u++ {
				steps := 0
				x := u
				for x != root {
					x = parent[x]
					steps++
					if steps > n {
						return // cycle
					}
				}
			}
			best = cost
			return
		}
		if v == root {
			rec(v+1, cost)
			return
		}
		for _, c := range in[v] {
			parent[v] = c.from
			rec(v+1, cost+c.cost)
		}
	}
	parent[root] = -1
	rec(0, 0)
	return best
}

func TestMCAMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(5) // ≤ 7 vertices for the brute force
		g := randomRootedDirected(rng, n, 2*n)
		tr, err := MCA(g, 0, ByStorage)
		if err != nil {
			t.Logf("MCA: %v", err)
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		want := bruteMinArborescence(g, 0, ByStorage)
		if math.Abs(tr.TotalStorage()-want) > 1e-9 {
			t.Logf("MCA %g, brute force %g (n=%d)", tr.TotalStorage(), want, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestMCAUnreachableVertex(t *testing.T) {
	g := New(3, true)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(2, 1, 1, 1) // vertex 2 has no in-arc
	if _, err := MCA(g, 0, ByStorage); err == nil {
		t.Errorf("MCA on unreachable graph succeeded")
	}
}

func TestMCAHandlesCycleContraction(t *testing.T) {
	// Classic case: cheap 1↔2 cycle, expensive entry; greedy per-vertex
	// in-edges alone would pick the cycle.
	g := New(3, true)
	g.AddEdge(0, 1, 10, 10)
	g.AddEdge(0, 2, 10, 10)
	g.AddEdge(1, 2, 1, 1)
	g.AddEdge(2, 1, 1, 1)
	tr, err := MCA(g, 0, ByStorage)
	if err != nil {
		t.Fatalf("MCA: %v", err)
	}
	if got := tr.TotalStorage(); got != 11 {
		t.Errorf("MCA weight = %g, want 11 (enter once, ride the cycle)", got)
	}
}

// floydDistances is the O(n³) reference for shortest paths.
func floydDistances(g *Graph, w Weight) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for v := 0; v < n; v++ {
		for _, e := range g.Out(v) {
			if c := e.Cost(w); c < d[e.From][e.To] {
				d[e.From][e.To] = c
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestSPTMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64, directed bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		var g *Graph
		if directed {
			g = randomRootedDirected(rng, n, 2*n)
		} else {
			g = randomConnectedUndirected(rng, n, n)
		}
		want := floydDistances(g, ByRecreate)[0]
		tr, dist, err := SPT(g, 0, ByRecreate)
		if err != nil {
			t.Logf("SPT: %v", err)
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		r := tr.RecreationCosts()
		for v := 0; v < n; v++ {
			if math.Abs(dist[v]-want[v]) > 1e-9 || math.Abs(r[v]-want[v]) > 1e-9 {
				t.Logf("v=%d dist=%g treeR=%g want=%g", v, dist[v], r[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSPTRejectsNegativeWeights(t *testing.T) {
	g := New(2, true)
	g.AddEdge(0, 1, -5, -5)
	if _, _, err := SPT(g, 0, ByRecreate); err == nil {
		t.Errorf("Dijkstra accepted a negative weight")
	}
}

func TestSPTUnreachable(t *testing.T) {
	g := New(3, true)
	g.AddEdge(0, 1, 1, 1)
	if _, _, err := SPT(g, 0, ByRecreate); err == nil {
		t.Errorf("SPT on disconnected graph succeeded")
	}
}

func TestPrimRequiresUndirected(t *testing.T) {
	g := New(2, true)
	g.AddEdge(0, 1, 1, 1)
	if _, err := PrimMST(g, 0, ByStorage); err == nil {
		t.Errorf("PrimMST accepted a directed graph")
	}
	if _, err := KruskalMST(g, 0, ByStorage); err == nil {
		t.Errorf("KruskalMST accepted a directed graph")
	}
}

func TestMCAOnUndirectedFallsBackToMST(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnectedUndirected(rng, 12, 12)
	mca, err := MCA(g, 0, ByStorage)
	if err != nil {
		t.Fatalf("MCA: %v", err)
	}
	prim, err := PrimMST(g, 0, ByStorage)
	if err != nil {
		t.Fatalf("Prim: %v", err)
	}
	if mca.TotalStorage() != prim.TotalStorage() {
		t.Errorf("undirected MCA %g != MST %g", mca.TotalStorage(), prim.TotalStorage())
	}
}

func TestPrimDisconnected(t *testing.T) {
	g := New(3, false)
	g.AddEdge(0, 1, 1, 1) // vertex 2 isolated
	if _, err := PrimMST(g, 0, ByStorage); err == nil {
		t.Errorf("Prim on disconnected graph succeeded")
	}
	if _, err := KruskalMST(g, 0, ByStorage); err == nil {
		t.Errorf("Kruskal on disconnected graph succeeded")
	}
}

func TestMCAParallelEdgesPickCheapest(t *testing.T) {
	g := New(2, true)
	g.AddEdge(0, 1, 10, 10)
	g.AddEdge(0, 1, 3, 99) // cheaper by storage
	tr, err := MCA(g, 0, ByStorage)
	if err != nil {
		t.Fatalf("MCA: %v", err)
	}
	if tr.TotalStorage() != 3 {
		t.Errorf("MCA weight %g, want 3 (cheapest parallel edge)", tr.TotalStorage())
	}
}

func TestSPTParallelEdgesPickCheapest(t *testing.T) {
	g := New(2, true)
	g.AddEdge(0, 1, 10, 50)
	g.AddEdge(0, 1, 99, 7)
	tr, _, err := SPT(g, 0, ByRecreate)
	if err != nil {
		t.Fatalf("SPT: %v", err)
	}
	if tr.RecreationCosts()[1] != 7 {
		t.Errorf("SPT distance %g, want 7", tr.RecreationCosts()[1])
	}
}

// versionGraphInstance builds a directed graph shaped like Optimize's
// augmented cost graph: vertex 0 is the root with a materialization arc to
// every version, versions hang off a random bushy version tree, and each
// pair within hops of each other in that tree gets a delta arc each way of
// nearly equal cost, growing with the distance. Cheapest in-arcs then close
// many 2-cycles, which is what makes Chu-Liu/Edmonds contract.
func versionGraphInstance(rng *rand.Rand, n, hops int) *Graph {
	g := New(n, true)
	adj := make([][]int, n)
	for v := 2; v < n; v++ {
		p := max(1, v-1-rng.Intn(6))
		adj[p] = append(adj[p], v)
		adj[v] = append(adj[v], p)
	}
	for v := 1; v < n; v++ {
		size := float64(6000 + rng.Intn(2000))
		g.AddEdge(0, v, size, size)
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	for s := 1; s < n; s++ {
		queue := []int{s}
		dist[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if dist[v] == hops {
				continue
			}
			for _, u := range adj[v] {
				if dist[u] != -1 {
					continue
				}
				dist[u] = dist[v] + 1
				queue = append(queue, u)
				if s < u {
					c := float64(40*dist[u] + rng.Intn(30))
					g.AddEdge(s, u, c, c)
					g.AddEdge(u, s, c+float64(rng.Intn(3)), c)
				}
			}
		}
		for _, v := range queue {
			dist[v] = -1
		}
	}
	return g
}

var mcaSink *Tree

// BenchmarkMCA times the minimum-cost arborescence on version-graph-shaped
// instances with hop-5 neighbourhoods at two sizes, so ns/op shows how the
// cost grows with n; B/op and allocs/op show what one call allocates.
func BenchmarkMCA(b *testing.B) {
	for _, n := range []int{500, 4000} {
		g := versionGraphInstance(rand.New(rand.NewSource(1)), n, 5)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t, err := MCA(g, 0, ByStorage)
				if err != nil {
					b.Fatal(err)
				}
				mcaSink = t
			}
		})
	}
}
