package workload

import (
	"context"
	"fmt"
	"math/rand"

	"versiondb/internal/costs"
	"versiondb/internal/dataset"
	"versiondb/internal/delta"
	"versiondb/internal/store"
)

// ContentParams configure content-backed workload materialization: real CSV
// tables evolved by real edit scripts, differenced with the real Myers
// differ. Slower than SynthCosts, used at moderate scale and by the
// end-to-end prototype tests.
type ContentParams struct {
	Rows, Cols int // shape of the root table
	OpsPerEdge int // edit commands per derivation edge
	Seed       int64
}

// Contents holds materialized version payloads plus their edit scripts.
type Contents struct {
	Graph   *VersionGraph
	Payload [][]byte         // CSV bytes per version
	Scripts []dataset.Script // script used to derive version v from its first parent
}

// Materialize generates the per-version CSV payloads by walking the version
// graph in id order (parents always precede children) and applying random
// edit scripts; merge commits apply their script to the first parent, which
// is how the paper's prototype records user-performed merges.
func (vg *VersionGraph) Materialize(p ContentParams) (*Contents, error) {
	if p.Rows < 4 || p.Cols < 2 {
		return nil, fmt.Errorf("workload: content table too small (%dx%d)", p.Rows, p.Cols)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	tables := make([]*dataset.Table, vg.N)
	c := &Contents{
		Graph:   vg,
		Payload: make([][]byte, vg.N),
		Scripts: make([]dataset.Script, vg.N),
	}
	tables[0] = dataset.Random(rng, p.Rows, p.Cols)
	var err error
	if c.Payload[0], err = tables[0].EncodeCSV(); err != nil {
		return nil, err
	}
	for v := 1; v < vg.N; v++ {
		parent := vg.Parents[v][0]
		base := tables[parent]
		script := dataset.RandomScript(rng, base.NumRows(), base.NumCols(), 1+rng.Intn(p.OpsPerEdge))
		t, err := script.Apply(base)
		if err != nil {
			return nil, fmt.Errorf("workload: materialize version %d: %w", v, err)
		}
		tables[v] = t
		c.Scripts[v] = script
		if c.Payload[v], err = t.EncodeCSV(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DeltaMode selects how content deltas are costed.
type DeltaMode int

const (
	// PlainDiff: Δ = Φ = uncompressed one-way (directed) or two-way
	// (undirected) diff size.
	PlainDiff DeltaMode = iota
	// CompressedDiff: Δ = flate-compressed diff size, Φ = uncompressed
	// diff size (Φ ≠ Δ — compression shrinks storage, not apply work).
	CompressedDiff
)

// Costs differences the materialized versions within the hop radius and
// returns the cost matrix. Materialization costs are payload sizes (and
// compressed payload sizes for Δ under CompressedDiff). The directed
// PlainDiff matrix comes from costs.LineDiffs, the kernel Optimize sizes
// its own matrix with; the other modes need the encoded bytes.
func (c *Contents) Costs(hops int, directed bool, mode DeltaMode) (*costs.Matrix, error) {
	n := c.Graph.N
	pairs := c.Graph.WithinHops(hops)
	if directed && mode == PlainDiff {
		later := make([][]int, n)
		for from, hps := range pairs {
			for _, hp := range hps {
				if from < hp.To {
					later[from] = append(later[from], hp.To)
				}
			}
		}
		m, _, err := costs.LineDiffs(context.Background(), c.Payload[:n], later, nil, store.BulkWorkers())
		return m, err
	}
	m := costs.NewMatrix(n, directed)
	for v := 0; v < n; v++ {
		full := float64(len(c.Payload[v]))
		stor := full
		if mode == CompressedDiff {
			stor = float64(len(delta.Compress(c.Payload[v])))
		}
		m.SetFull(v, stor, full)
	}
	for from := 0; from < n; from++ {
		for _, hp := range pairs[from] {
			if from >= hp.To {
				continue
			}
			to := hp.To
			d := delta.DiffLines(c.Payload[from], c.Payload[to])
			if directed {
				fwd := delta.Encode(d, true)
				bwd := delta.Encode(d.Invert(), true)
				m.SetDelta(from, to, deltaCost(fwd, mode), float64(len(fwd)))
				m.SetDelta(to, from, deltaCost(bwd, mode), float64(len(bwd)))
			} else {
				two := delta.Encode(d, false)
				m.SetDelta(from, to, deltaCost(two, mode), float64(len(two)))
			}
		}
	}
	return m, nil
}

func deltaCost(enc []byte, mode DeltaMode) float64 {
	if mode == CompressedDiff {
		return float64(len(delta.Compress(enc)))
	}
	return float64(len(enc))
}
