// Command vbench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment prints an aligned text table whose rows
// are the series the paper plots.
//
// Usage:
//
//	vbench -exp solvers|fig12|fig13|fig14|fig15|fig16|fig17|table2|svn-git|physical|autotune|replicas|all \
//	       [-scale full|test] [-seed N] [-points K]
//
// The solvers experiment prints the live solver registry (name → paper
// problem → constraint); the tradeoff figures iterate that registry rather
// than a hand-maintained algorithm list. The autotune experiment closes
// the serving loop: it drives a skewed checkout workload through a live
// repository and compares the unweighted layout against one laid out with
// telemetry-derived weights, reporting the weighted recreation cost Φ_w
// each would serve. The replicas experiment measures horizontal read
// scale-out: the same Zipf checkout workload served through the vmsproxy
// consistent-hash router at 1, 2, and 4 metalog-tailing replicas,
// reporting aggregate throughput and p50/p99 latency.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"versiondb/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: solvers, fig12, fig13, fig14, fig15, fig16, fig17, table2, svn-git, physical, autotune, replicas, all")
	scaleName := flag.String("scale", "full", "dataset scale: full or test")
	seed := flag.Int64("seed", 1, "workload generator seed")
	points := flag.Int("points", 0, "points per tradeoff curve (0 = default)")
	csvDir := flag.String("csv", "", "directory to also write CSV outputs into")
	flag.Parse()

	scale := bench.DefaultScale()
	if *scaleName == "test" {
		scale = bench.TestScale()
	}
	scale.Seed = *seed
	if *points > 0 {
		scale.SweepPoints = *points
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "vbench:", err)
			os.Exit(1)
		}
	}
	if err := run(*exp, scale, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		os.Exit(1)
	}
}

// writeCSV persists one artifact's CSV when -csv is set.
func writeCSV(dir, name string, emit func(w *os.File) error) error {
	if dir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return emit(f)
}

func run(exp string, scale bench.Scale, csvDir string) error {
	out := os.Stdout
	runOne := func(name string) error {
		switch name {
		case "solvers":
			bench.FormatSolvers(out)
		case "fig12":
			rows, err := bench.Fig12(scale)
			if err != nil {
				return err
			}
			bench.FormatFig12(out, rows)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteFig12CSV(w, rows) }); err != nil {
				return err
			}
		case "fig13":
			fig, err := bench.Fig13(scale)
			if err != nil {
				return err
			}
			bench.FormatFigure(out, fig)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteFigureCSV(w, fig) }); err != nil {
				return err
			}
		case "fig14":
			fig, err := bench.Fig14(scale)
			if err != nil {
				return err
			}
			bench.FormatFigure(out, fig)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteFigureCSV(w, fig) }); err != nil {
				return err
			}
		case "fig15":
			fig, err := bench.Fig15(scale)
			if err != nil {
				return err
			}
			bench.FormatFigure(out, fig)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteFigureCSV(w, fig) }); err != nil {
				return err
			}
		case "fig16":
			fig, err := bench.Fig16(scale)
			if err != nil {
				return err
			}
			bench.FormatFigure(out, fig)
			gaps, err := bench.Fig16Gap(fig)
			if err != nil {
				return err
			}
			for _, sub := range fig.Subplots {
				fmt.Fprintf(out, "   %s: plain/aware weighted ΣR ratio = %.3f\n", sub.Title, gaps[sub.Title])
			}
		case "fig17":
			sizes := []int{100, 250, 500, 1000}
			if scale.DC < 1000 {
				sizes = []int{30, 60, 100}
			}
			rows, err := bench.Fig17(scale, sizes, 3)
			if err != nil {
				return err
			}
			bench.FormatFig17(out, rows)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteFig17CSV(w, rows) }); err != nil {
				return err
			}
		case "table2":
			sizes := []int{15, 25, 50}
			if scale.DC < 1000 {
				sizes = []int{10, 15}
			}
			rows, err := bench.Table2(sizes, 5, scale.Seed, 0)
			if err != nil {
				return err
			}
			bench.FormatTable2(out, rows)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteTable2CSV(w, rows) }); err != nil {
				return err
			}
		case "svn-git":
			n := 60
			if scale.DC < 1000 {
				n = 30
			}
			rows, err := bench.Sec52(n, scale.Seed)
			if err != nil {
				return err
			}
			bench.FormatSec52(out, rows)
			if err := bench.Sec52Ordering(rows); err != nil {
				fmt.Fprintf(out, "   WARNING: %v\n", err)
			} else {
				fmt.Fprintln(out, "   ordering holds: naive > gzip > SVN > GitH ≥ MCA")
			}
		case "physical":
			n := 40
			if scale.DC < 1000 {
				n = 20
			}
			rows, err := bench.Physical(n, scale.Seed)
			if err != nil {
				return err
			}
			bench.FormatPhysical(out, rows)
		case "autotune":
			n := 60
			if scale.DC < 1000 {
				n = 30
			}
			rows, err := bench.Autotune(n, scale.Seed)
			if err != nil {
				return err
			}
			bench.FormatAutotune(out, rows)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteAutotuneCSV(w, rows) }); err != nil {
				return err
			}
		case "replicas":
			rs := bench.DefaultReplicaScale()
			if scale.DC < 1000 {
				rs = bench.TestReplicaScale()
			}
			rs.Seed = scale.Seed
			rows, err := bench.Replicas(rs)
			if err != nil {
				return err
			}
			bench.FormatReplicas(out, rows)
			if err := writeCSV(csvDir, name, func(w *os.File) error { return bench.WriteReplicasCSV(w, rows) }); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		fmt.Fprintln(out)
		return nil
	}

	if exp == "all" {
		for _, name := range []string{"solvers", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "table2", "svn-git", "physical", "autotune", "replicas"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(exp)
}
