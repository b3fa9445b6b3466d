package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"versiondb/internal/dataset"
	"versiondb/internal/solve"
	"versiondb/internal/vcs"
	"versiondb/internal/workload"
)

// scale sizes the generated dataset.
type scale struct {
	// Forks is the number of independently generated version graphs. The
	// root of each hangs off the root of the one before, as a fork of a
	// fork would. Many shallow graphs instead of one deep one make every
	// seed's dataset an average over many independent pieces, so payload
	// sizes and costs vary little from seed to seed. A chain of roots,
	// rather than every root hanging off version 0, keeps the versions
	// within Optimize's differencing radius of any one version local to a
	// few forks.
	Forks    int `json:"forks"`
	Versions int `json:"versions"` // in all forks together
	Rows     int `json:"rows"`
	Cols     int `json:"cols"`
	// OpsPerEdge bounds the edit commands per derivation edge.
	OpsPerEdge int `json:"ops_per_edge"`
}

// data is one generated dataset: the paper's §5.1 version graphs with
// CSV payloads evolved by edit scripts (column adds and removes included),
// plus the SHA-256 of every payload for the correctness gate.
type data struct {
	graph    *workload.VersionGraph
	payloads [][]byte
	sums     [][sha256.Size]byte
	logical  int64
}

// generate builds the dataset for seed. The same seed gives the same
// graphs and the same bytes.
func generate(sc scale, seed int64) (*data, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &data{graph: &workload.VersionGraph{}}
	root := 0 // the previous fork's root
	for f := 0; f < sc.Forks; f++ {
		// Bushy graphs: every second mainline commit starts one to three
		// short branches, so no derivation chain gets deep.
		vg, err := workload.Generate(workload.GraphParams{
			Commits:        sc.Versions / sc.Forks,
			BranchInterval: 2,
			BranchProb:     1,
			BranchLimit:    3,
			BranchLength:   3,
			MergeProb:      0.2,
			Seed:           rng.Int63(),
		})
		if err != nil {
			return nil, err
		}
		c, err := vg.Materialize(workload.ContentParams{Rows: sc.Rows, Cols: sc.Cols, OpsPerEdge: sc.OpsPerEdge, Seed: rng.Int63()})
		if err != nil {
			return nil, err
		}
		base := d.graph.N
		for v, parents := range vg.Parents {
			shifted := make([]int, len(parents))
			for i, p := range parents {
				shifted[i] = base + p
			}
			if v == 0 && base > 0 {
				shifted = []int{root}
			}
			d.version(shifted, c.Payload[v])
		}
		root = base
	}
	return d, nil
}

// version appends a version with the given parents to the dataset.
func (d *data) version(parents []int, payload []byte) {
	id := d.graph.N
	d.graph.N++
	d.graph.Parents = append(d.graph.Parents, parents)
	for _, p := range parents {
		d.graph.Edges = append(d.graph.Edges, [2]int{p, id})
	}
	d.add(payload)
}

func (d *data) add(payload []byte) {
	d.payloads = append(d.payloads, payload)
	d.sums = append(d.sums, sha256.Sum256(payload))
	d.logical += int64(len(payload))
}

// clone returns a copy whose version list can grow without touching d's.
func (d *data) clone() *data {
	c := &data{logical: d.logical}
	c.payloads = append(c.payloads, d.payloads...)
	c.sums = append(c.sums, d.sums...)
	c.graph = &workload.VersionGraph{N: d.graph.N}
	c.graph.Parents = append(c.graph.Parents, d.graph.Parents...)
	c.graph.Edges = append(c.graph.Edges, d.graph.Edges...)
	return c
}

// check compares a checked-out payload against the generated one.
func (d *data) check(v int, got []byte) error {
	if v < 0 || v >= len(d.sums) {
		return fmt.Errorf("version %d was never generated", v)
	}
	if sha256.Sum256(got) != d.sums[v] {
		return fmt.Errorf("version %d: checkout bytes differ from the committed payload (%d bytes, want %d)", v, len(got), len(d.payloads[v]))
	}
	return nil
}

// load replays the version graph through the client: each version is
// committed on a branch whose tip is its first parent (a branch is created
// at the parent when none is), and merge versions become merge commits.
// It returns the per-commit latencies and the final branch tips.
func load(c *vcs.Client, d *data, t *tracer) ([]time.Duration, map[string]int, error) {
	tipBranch := map[int]string{}
	lat := make([]time.Duration, 0, d.graph.N)
	for v := 0; v < d.graph.N; v++ {
		parents := d.graph.Parents[v]
		branch := "master"
		if len(parents) > 0 {
			b, ok := tipBranch[parents[0]]
			if !ok {
				b = fmt.Sprintf("b%d", v)
				if err := c.Branch(b, parents[0]); err != nil {
					return nil, nil, fmt.Errorf("load: branch at %d: %w", parents[0], err)
				}
			}
			delete(tipBranch, parents[0])
			branch = b
		}
		op := t.begin("commit")
		start := time.Now()
		var id int
		var err error
		if len(parents) > 1 {
			id, err = c.Merge(branch, parents[1], d.payloads[v], "merge")
		} else {
			id, err = c.Commit(branch, d.payloads[v], "commit")
		}
		took := time.Since(start)
		t.end(op, took)
		lat = append(lat, took)
		if err != nil {
			return nil, nil, fmt.Errorf("load: commit version %d: %w", v, err)
		}
		if id != v {
			return nil, nil, fmt.Errorf("load: commit of version %d came back as id %d", v, id)
		}
		tipBranch[v] = branch
	}
	tips := map[string]int{}
	for v, b := range tipBranch {
		tips[b] = v
	}
	return lat, tips, nil
}

// pendingCommit is one precomputed commit of the commit_optimize traffic.
type pendingCommit struct {
	branch  string
	parent  int
	payload []byte
}

// commitScript precomputes n commits round-robin over the k most recent
// branch tips: each payload is a dataset.RandomScript applied to the tip's
// current table. It also extends a copy of d with the new versions, so the
// correctness gate and the cost floors know them.
func commitScript(d *data, tips map[string]int, k, n int, seed int64) ([]pendingCommit, *data, error) {
	type tip struct {
		branch string
		v      int
		table  *dataset.Table
	}
	var ts []tip
	for b, v := range tips {
		ts = append(ts, tip{branch: b, v: v})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].v > ts[j].v })
	if len(ts) > k {
		ts = ts[:k]
	}
	for i := range ts {
		t, err := dataset.DecodeCSV(d.payloads[ts[i].v])
		if err != nil {
			return nil, nil, fmt.Errorf("commit script: decode tip %d: %w", ts[i].v, err)
		}
		ts[i].table = t
	}
	out := d.clone()
	rng := rand.New(rand.NewSource(seed))
	script := make([]pendingCommit, 0, n)
	for i := 0; i < n; i++ {
		t := &ts[i%len(ts)]
		s := dataset.RandomScript(rng, t.table.NumRows(), t.table.NumCols(), 1+rng.Intn(3))
		next, err := s.Apply(t.table)
		if err != nil {
			return nil, nil, fmt.Errorf("commit script: %w", err)
		}
		payload, err := next.EncodeCSV()
		if err != nil {
			return nil, nil, err
		}
		script = append(script, pendingCommit{branch: t.branch, parent: t.v, payload: payload})
		t.table, t.v = next, out.graph.N
		out.version([]int{script[i].parent}, payload)
	}
	return script, out, nil
}

// floors solves the storage and recreation floors of the instance the
// repository optimizes — the same hop-limited one-way line diffs over the
// version graph — with the public solve API: the minimum-storage
// arborescence (MST) and the shortest-path tree (SPT). factor scales the
// recreation column the way a remote tier's retrieval factor does.
func floors(d *data, factor float64) (mst, spt *solve.Solution, err error) {
	m, err := (&workload.Contents{Graph: d.graph, Payload: d.payloads}).Costs(optimizeHops, true, workload.PlainDiff)
	if err != nil {
		return nil, nil, err
	}
	if factor != 1 {
		m.ScaleRecreate(factor)
	}
	inst, err := solve.NewInstance(m)
	if err != nil {
		return nil, nil, err
	}
	if mst, err = solve.MinStorage(inst); err != nil {
		return nil, nil, err
	}
	if spt, err = solve.MinRecreation(inst); err != nil {
		return nil, nil, err
	}
	return mst, spt, nil
}

// corrupt changes the expected checksum of version v, so the correctness
// gate must trip on the next checkout of v. It exists for the self-test.
func (d *data) corrupt(v int) { d.sums[v][0] ^= 0xff }
