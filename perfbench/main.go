// Command perfbench is the repository's benchmark. It drives a vcs.Server
// (the vmsd HTTP API) in-process over loopback with the stock vcs.Client,
// one closed-loop client connection, on one of three seeded workloads:
//
//   - hot_read: Zipf checkouts streamed from a warm byte-budget cache.
//   - cold_remote: uniform checkouts replayed from the remote object tier.
//   - commit_optimize: commits with read-back and periodic lmg re-layouts.
//
// Every checkout is compared by SHA-256 against the generated payload and
// every commit id against the expected one. With -trace 0 the run reports
// the end-to-end metrics; with -trace 1 it makes an untraced and a traced
// pass and reports the per-layer metrics, attributed from spans recorded
// around the calls into each layer (see trace.go), plus the tracing
// overhead. The last line of standard output is the JSON result.
//
// The timings behind the end-to-end metrics are rescaled to a reference
// machine speed, measured between operations with a fixed kernel (see
// speed in measure.go), so that a busy neighbour on a shared VM moves them
// less than a change to the program does. The run header gives the
// kernel's median time, which gives the scale factor of a typical sample.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot_read --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects a run's operation tally, its assertion failures and
// its metrics.
type outcome struct {
	attempted, failed int
	errs              []string
	metrics           map[string]metric
	header            map[string]any
}

// maxLoggedErrors bounds the failures echoed to standard error.
const maxLoggedErrors = 5

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, header: map[string]any{}}
}

// op counts one attempted operation and, when err is set, its failure.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		o.fail(err.Error())
	}
}

// check records a failed assertion about the run as a whole.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(fmt.Sprintf(format, args...))
	}
}

func (o *outcome) fail(msg string) {
	if len(o.errs) < maxLoggedErrors {
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	o.errs = append(o.errs, msg)
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) correct() bool { return o.failed == 0 && len(o.errs) == 0 }

func main() {
	name := flag.String("workload", "", "workload: hot_read, cold_remote or commit_optimize")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := flag.Float64("seconds", 20, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced pass; 0 the end-to-end metrics")
	flag.Parse()
	sp, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	steal0, ticks0 := cpuSteal()
	b := &bench{spec: sp, seed: *seed, dur: time.Duration(*secs * float64(time.Second)), setups: 7, out: newOutcome()}
	if err := b.run(*trace == 1); err != nil {
		fatal(err)
	}
	b.out.header["workload"] = sp.name
	b.out.header["seed"] = *seed
	b.out.header["seconds"] = *secs
	b.out.header["trace"] = *trace
	// The share of CPU time the hypervisor gave to other guests while the
	// run went on: on a shared VM, the usual cause of a run slower than
	// its neighbours.
	steal1, ticks1 := cpuSteal()
	b.out.header["steal_pct"] = 100 * ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	if err := b.out.print(os.Stdout); err != nil {
		fatal(err)
	}
	if !b.out.correct() {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// print writes the run header line, then the result as the last line.
func (o *outcome) print(f *os.File) error {
	o.header["go"] = runtime.Version()
	o.header["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.header["cpu"] = cpuModel()
	o.header["commit"] = commitHash()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": o.header}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{
		"correct":   o.correct(),
		"attempted": o.attempted,
		"failed":    o.failed,
		"metrics":   o.metrics,
	}); err != nil {
		return err
	}
	return w.Flush()
}

// cpuSteal returns the machine's stolen and total CPU ticks so far, from
// the first line of /proc/stat, or zeros where there is none.
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	// user nice system idle iowait irq softirq steal; guest time, which
	// follows, is already counted in user.
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuModel names the processor, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commitHash is the VCS revision the binary was built from, when the
// build could see one.
func commitHash() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// run executes the workload and fills b.out.
func (b *bench) run(trace bool) error {
	if trace {
		return b.traced()
	}
	return b.untraced()
}
