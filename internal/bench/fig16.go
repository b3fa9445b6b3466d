package bench

import (
	"context"
	"fmt"

	"versiondb/internal/solve"
	"versiondb/internal/workload"
)

// Fig16 regenerates Figure 16: workload-aware LMG ("LMG-W") against plain
// LMG on directed DC and LF, with Zipfian (exponent 2) access frequencies.
// Both curves report the *weighted* sum of recreation costs, which is what
// a skewed workload experiences.
func Fig16(s Scale) (*Figure, error) {
	s = s.orDefault()
	fig := &Figure{ID: "fig16", Title: "Workload-aware LMG vs LMG (Zipf exponent 2, weighted Σ recreation)"}
	for _, p := range []workload.Preset{workload.DC, workload.LF} {
		d, err := BuildDataset(p, s.of(p), true, s.Seed)
		if err != nil {
			return nil, err
		}
		freq := workload.Zipf(d.Inst.M.N(), 2, s.Seed+7)
		reqs, err := solve.SweepRequests(d.Inst, "lmg", s.SweepPoints)
		if err != nil {
			return nil, err
		}
		hints := &solve.Hints{}
		if hints.MST, err = solve.MinStorage(d.Inst); err != nil {
			return nil, err
		}
		if hints.SPT, err = solve.MinRecreation(d.Inst); err != nil {
			return nil, err
		}
		var plain, aware []*solve.Solution
		for _, req := range reqs {
			req.Hints = hints
			p, err := solve.Solve(context.Background(), d.Inst, req)
			if err != nil {
				return nil, err
			}
			req.Weights = freq
			a, err := solve.Solve(context.Background(), d.Inst, req)
			if err != nil {
				return nil, err
			}
			plain, aware = append(plain, p.Solution), append(aware, a.Solution)
		}
		sub := Subplot{Title: d.Name, MinStorage: hints.MST.Storage}
		sub.Curves = append(sub.Curves,
			weightedCurve("LMG", plain, freq),
			weightedCurve("LMG-W", aware, freq))
		fig.Subplots = append(fig.Subplots, sub)
	}
	return fig, nil
}

// weightedCurve reports each solution's weighted Σ recreation in SumR.
func weightedCurve(name string, sols []*solve.Solution, freq []float64) Curve {
	c := Curve{Name: name, Points: make([]Point, 0, len(sols))}
	for _, s := range sols {
		// The tree spans versions at vertices 1..n; vertex 0 has weight 0.
		w := make([]float64, len(freq)+1)
		copy(w[1:], freq)
		c.Points = append(c.Points, Point{
			Param:   s.Param,
			Storage: s.Storage,
			SumR:    s.Tree.WeightedSumRecreation(w),
			MaxR:    s.MaxR,
			Seconds: s.Elapsed.Seconds(),
		})
	}
	return c
}

// Fig16Gap returns, per dataset, the mean ratio of plain-LMG weighted cost
// to workload-aware weighted cost across the sweep (>1 means the aware
// variant wins) — the summary statistic EXPERIMENTS.md records.
func Fig16Gap(fig *Figure) (map[string]float64, error) {
	out := map[string]float64{}
	for _, sub := range fig.Subplots {
		if len(sub.Curves) != 2 {
			return nil, fmt.Errorf("bench: fig16 subplot %s has %d curves", sub.Title, len(sub.Curves))
		}
		plain, aware := sub.Curves[0], sub.Curves[1]
		if len(plain.Points) != len(aware.Points) || len(plain.Points) == 0 {
			return nil, fmt.Errorf("bench: fig16 subplot %s has mismatched sweeps", sub.Title)
		}
		var ratio float64
		for i := range plain.Points {
			ratio += plain.Points[i].SumR / aware.Points[i].SumR
		}
		out[sub.Title] = ratio / float64(len(plain.Points))
	}
	return out, nil
}
