package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestPhysicalModelMatchesMeasured(t *testing.T) {
	rows, err := Physical(20, 1)
	if err != nil {
		t.Fatalf("Physical: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows (MST, LMG, SPT), got %d", len(rows))
	}
	for _, r := range rows {
		// Uncompressed one-way diffs: model and measured are the same
		// quantity through two independent stacks.
		if math.Abs(r.Ratio-1) > 1e-9 {
			t.Errorf("%s: measured/model ratio %.6f, want 1", r.Algorithm, r.Ratio)
		}
		if r.StoredBytes <= 0 {
			t.Errorf("%s: stored bytes %d", r.Algorithm, r.StoredBytes)
		}
	}
	// SPT materializes everything: zero chains, measured ΣR equals stored.
	spt := rows[2]
	if spt.Algorithm != "SPT" || spt.MaxChain != 0 {
		t.Errorf("SPT row unexpected: %+v", spt)
	}
	if float64(spt.StoredBytes) != spt.MeasuredSumR {
		t.Errorf("SPT stored %d != measured ΣR %g", spt.StoredBytes, spt.MeasuredSumR)
	}
	// LMG trades storage for shorter chains vs MST.
	mst, lmg := rows[0], rows[1]
	if lmg.MaxChain >= mst.MaxChain {
		t.Errorf("LMG chain %d not shorter than MST chain %d", lmg.MaxChain, mst.MaxChain)
	}
	if lmg.ModelSumR >= mst.ModelSumR {
		t.Errorf("LMG ΣR %g not better than MST %g", lmg.ModelSumR, mst.ModelSumR)
	}
}

func TestCSVOutputs(t *testing.T) {
	s := TestScale()
	fig, err := Fig13(s)
	if err != nil {
		t.Fatalf("Fig13: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, fig); err != nil {
		t.Fatalf("WriteFigureCSV: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"figure,dataset,algorithm", "fig13,DC,LMG", "ref-min-storage"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure CSV missing %q", want)
		}
	}
	lines := strings.Count(out, "\n")
	if lines < 4*4 { // ≥ 4 datasets × 4 algorithms
		t.Errorf("figure CSV has only %d lines", lines)
	}

	rows, err := Fig12(s)
	if err != nil {
		t.Fatalf("Fig12: %v", err)
	}
	buf.Reset()
	if err := WriteFig12CSV(&buf, rows); err != nil {
		t.Fatalf("WriteFig12CSV: %v", err)
	}
	if !strings.Contains(buf.String(), "mca_storage") || !strings.Contains(buf.String(), "LF,") {
		t.Errorf("fig12 CSV malformed:\n%s", buf.String())
	}

	t2, err := Table2([]int{10}, 2, 1, 200_000)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	buf.Reset()
	if err := WriteTable2CSV(&buf, t2); err != nil {
		t.Fatalf("WriteTable2CSV: %v", err)
	}
	if !strings.Contains(buf.String(), "exact_storage") {
		t.Errorf("table2 CSV malformed")
	}

	rt, err := Fig17(s, []int{30}, 1)
	if err != nil {
		t.Fatalf("Fig17: %v", err)
	}
	buf.Reset()
	if err := WriteFig17CSV(&buf, rt); err != nil {
		t.Fatalf("WriteFig17CSV: %v", err)
	}
	if !strings.Contains(buf.String(), "lmg_seconds") {
		t.Errorf("fig17 CSV malformed")
	}
}
