package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestFig12SmallScale(t *testing.T) {
	rows, err := Fig12(TestScale())
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 datasets, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Versions <= 0 || r.Deltas <= 0 {
			t.Errorf("%s: empty dataset (%d versions, %d deltas)", r.Name, r.Versions, r.Deltas)
		}
		if r.MCAStorage > r.SPTStorage {
			t.Errorf("%s: MCA storage %g exceeds SPT storage %g", r.Name, r.MCAStorage, r.SPTStorage)
		}
		if r.SPTSumR > r.MCASumR {
			t.Errorf("%s: SPT ΣR %g exceeds MCA ΣR %g", r.Name, r.SPTSumR, r.MCASumR)
		}
		if r.SPTStorage != r.SPTSumR {
			t.Errorf("%s: SPT storage %g != SPT ΣR %g (all-materialized invariant)", r.Name, r.SPTStorage, r.SPTSumR)
		}
	}
	var buf bytes.Buffer
	FormatFig12(&buf, rows)
	for _, want := range []string{"DC", "LC", "BF", "LF", "MCA storage"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	fig, err := Fig13(TestScale())
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	if len(fig.Subplots) != 4 {
		t.Fatalf("want 4 subplots, got %d", len(fig.Subplots))
	}
	for _, sub := range fig.Subplots {
		var lmg *Curve
		for i := range sub.Curves {
			if sub.Curves[i].Name == "LMG" {
				lmg = &sub.Curves[i]
			}
			for _, p := range sub.Curves[i].Points {
				if p.Storage < sub.MinStorage-1e-6 {
					t.Errorf("%s/%s: storage %g below MCA %g", sub.Title, sub.Curves[i].Name, p.Storage, sub.MinStorage)
				}
				if p.SumR < sub.MinSumR-1e-6 {
					t.Errorf("%s/%s: ΣR %g below SPT %g", sub.Title, sub.Curves[i].Name, p.SumR, sub.MinSumR)
				}
			}
		}
		if lmg == nil || len(lmg.Points) == 0 {
			t.Fatalf("%s: no LMG curve", sub.Title)
		}
		// Headline finding: modest storage slack collapses Σ recreation.
		first, last := lmg.Points[0], lmg.Points[len(lmg.Points)-1]
		if last.SumR > first.SumR {
			t.Errorf("%s: LMG ΣR increased along the budget sweep (%g → %g)", sub.Title, first.SumR, last.SumR)
		}
	}
	var buf bytes.Buffer
	FormatFigure(&buf, fig)
	if !strings.Contains(buf.String(), "GitH") {
		t.Errorf("fig13 report missing GitH curve")
	}
}

func TestFig14MPDominatesOnMaxR(t *testing.T) {
	fig, err := Fig14(TestScale())
	if err != nil {
		t.Fatalf("Fig14: %v", err)
	}
	for _, sub := range fig.Subplots {
		curves := map[string]Curve{}
		for _, c := range sub.Curves {
			curves[c.Name] = c
		}
		mp, ok := curves["MP"]
		if !ok || len(mp.Points) == 0 {
			t.Fatalf("%s: missing MP curve", sub.Title)
		}
		// MP's best maxR must reach (near) the SPT lower bound.
		best := mp.Points[0].MaxR
		for _, p := range mp.Points {
			if p.MaxR < best {
				best = p.MaxR
			}
		}
		if best > sub.MinMaxR*1.05+1e-6 {
			t.Errorf("%s: MP best maxR %g far above SPT bound %g", sub.Title, best, sub.MinMaxR)
		}
	}
}

func TestFig15Undirected(t *testing.T) {
	fig, err := Fig15(TestScale())
	if err != nil {
		t.Fatalf("Fig15: %v", err)
	}
	if len(fig.Subplots) != 4 {
		t.Fatalf("want 4 subplots (a-d), got %d", len(fig.Subplots))
	}
}

func TestFig16WorkloadAwareWins(t *testing.T) {
	fig, err := Fig16(TestScale())
	if err != nil {
		t.Fatalf("Fig16: %v", err)
	}
	gaps, err := Fig16Gap(fig)
	if err != nil {
		t.Fatalf("Fig16Gap: %v", err)
	}
	for name, g := range gaps {
		// Aware must be no worse than plain on weighted cost (ratio ≥ ~1).
		if g < 0.98 {
			t.Errorf("%s: workload-aware LMG worse than plain (ratio %.3f)", name, g)
		}
	}
}

// TestAutotuneTelemetryWins is the closed-loop acceptance check: on a
// skewed checkout workload over a live repository, the layout solved with
// telemetry-derived weights serves the observed workload no worse — and in
// practice meaningfully cheaper — than the unweighted layout under the same
// storage budget.
func TestAutotuneTelemetryWins(t *testing.T) {
	rows, err := Autotune(30, 1)
	if err != nil {
		t.Fatalf("Autotune: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 variants, got %+v", rows)
	}
	gap, err := AutotuneGap(rows)
	if err != nil {
		t.Fatalf("AutotuneGap: %v", err)
	}
	// Directional: telemetry must not lose (ratio ≥ ~1); with this skew it
	// should win comfortably.
	if gap < 0.99 {
		t.Errorf("telemetry-weighted layout worse than uniform (Φ_w ratio %.3f): %+v", gap, rows)
	}
	if gap < 1.05 {
		t.Logf("warning: telemetry gain marginal (ratio %.3f)", gap)
	}
}

func TestFig17RuntimesPositive(t *testing.T) {
	rows, err := Fig17(TestScale(), []int{30, 60}, 2)
	if err != nil {
		t.Fatalf("Fig17: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no runtime rows")
	}
	for _, r := range rows {
		if r.TotalSec < r.LMGSec {
			t.Errorf("%s n=%d: total %gs < LMG %gs", r.Dataset, r.Versions, r.TotalSec, r.LMGSec)
		}
	}
}

func TestTable2MPCloseToExact(t *testing.T) {
	rows, err := Table2([]int{10, 15}, 3, 1, 2_000_000)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	if len(rows) == 0 {
		t.Fatal("no table2 rows")
	}
	for _, r := range rows {
		if r.MPStorage < r.ExactStorage-1e-6 && r.ExactOptimal {
			t.Errorf("%s θ=%g: MP %g beat a provably optimal exact %g", r.Dataset, r.Theta, r.MPStorage, r.ExactStorage)
		}
		if r.ExactOptimal && r.MPStorage > 3*r.ExactStorage {
			t.Errorf("%s θ=%g: MP %g far from optimal %g", r.Dataset, r.Theta, r.MPStorage, r.ExactStorage)
		}
	}
	var buf bytes.Buffer
	FormatTable2(&buf, rows)
	if !strings.Contains(buf.String(), "v10") {
		t.Errorf("table2 report missing dataset label")
	}
}

func TestSec52Ordering(t *testing.T) {
	rows, err := Sec52(30, 1)
	if err != nil {
		t.Fatalf("Sec52: %v", err)
	}
	if err := Sec52Ordering(rows); err != nil {
		t.Errorf("%v", err)
	}
	var buf bytes.Buffer
	FormatSec52(&buf, rows)
	if !strings.Contains(buf.String(), "SVN") {
		t.Errorf("sec52 report missing SVN row")
	}
}
