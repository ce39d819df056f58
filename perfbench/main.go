// Command perfbench measures the host cost of producing godsm's simulated
// results: the wall time, CPU, set-up time and allocations needed to
// simulate and golden-verify every cell of a workload, and, in a separate
// traced run, where that cost goes layer by layer. See README.md for the
// workloads, the metrics and the layer → metric → workload map.
//
// Usage:
//
//	perfbench --workload paper-grid --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a failed cell or a broken
// determinism check makes correct false. The process exits non-zero, with
// no result line, on a usage error or when it cannot measure.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"godsm/internal/harness"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-grid, checked-home or scaled-1024")
	seed := fs.Int64("seed", 1, "seed for Config.GossipSeed (app inputs are fixed by the apps' own seeds)")
	seconds := fs.Int("seconds", 40, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = errors.New("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	cells := w.cells(*seed)
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0), len(cells))
	env := currentEnvironment(workers)
	stamp, _ := json.Marshal(env) // a struct of strings and ints always marshals
	fmt.Fprintf(stdout, "workload %s: %d cells, seed %d, %ds budget\nenv %s\n",
		w.name, len(cells), *seed, *seconds, stamp)

	deadline := harness.Wallclock().Add(time.Duration(*seconds) * time.Second)
	var res result
	if *trace == 0 {
		res, err = measure(stdout, cells, workers, deadline)
	} else {
		res, err = traced(stdout, cells, workers, deadline)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runner runs the passes of one benchmark run and accumulates its
// correctness verdict: each cell verified against its golden, and every
// pass producing the same fingerprint digest. Each pass hands its cells out
// longest first by the durations of the pass before it.
type runner struct {
	out       io.Writer
	cells     []cell
	workers   int
	order     []int
	digest    string
	attempted int
	failed    int
	correct   bool
}

func newRunner(out io.Writer, cells []cell, workers int) *runner {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	return &runner{out: out, cells: cells, workers: workers, order: order, correct: true}
}

// run executes and checks one pass.
func (c *runner) run(label string, traced bool) (pass, error) {
	p, err := runPass(c.cells, c.order, c.workers, traced)
	if err != nil {
		return p, err
	}
	c.order = p.longestFirst()
	errs := p.failures()
	c.attempted += len(p.cells)
	c.failed += len(errs)
	for _, err := range errs {
		fmt.Fprintln(c.out, "FAIL", err)
	}
	d := p.digest()
	if c.digest == "" {
		c.digest = d
	} else if d != c.digest {
		fmt.Fprintf(c.out, "FAIL %s pass digest %s differs from %s\n", label, d, c.digest)
		c.correct = false
	}
	fmt.Fprintf(c.out, "%s pass: wall %.3fs cpu %.3fs allocs %d digest %s\n",
		label, p.wall.Seconds(), p.cpu.Seconds(), p.allocs, d)
	return p, nil
}

func (c *runner) result(m map[string]metric) result {
	fmt.Fprintf(c.out, "fingerprint digest %s\nfail_frac %g ratio (%d of %d cells)\n",
		c.digest, float64(c.failed)/float64(max(c.attempted, 1)), c.failed, c.attempted)
	return result{Correct: c.correct && c.failed == 0 && c.attempted > 0,
		Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// measure reports the end-to-end metrics, untraced. After one warm-up
// pass, whose cells are checked but not timed, it alternates timed
// whole-workload passes on the worker pool with serial set-up passes that
// take about a tenth of the time, while the budget lasts. Every metric is
// the median over its passes.
func measure(out io.Writer, cells []cell, workers int, deadline time.Time) (result, error) {
	r := newRunner(out, cells, workers)
	if _, err := r.run("warm-up", false); err != nil {
		return result{}, err
	}
	var setups, walls, cpus []time.Duration
	var allocs, allocMB, peakMB []float64
	var simElapsed float64
	for i := 1; ; i++ {
		p, err := r.run(fmt.Sprintf("#%d", i), false)
		if err != nil {
			return result{}, err
		}
		walls = append(walls, p.wall)
		cpus = append(cpus, p.cpu)
		allocs = append(allocs, float64(p.allocs))
		allocMB = append(allocMB, float64(p.allocBytes)/1e6)
		peakMB = append(peakMB, float64(p.peakHeap)/1e6)
		simElapsed = p.simElapsed()
		// Set-up passes take about a tenth of the budget, interleaved with
		// the workload passes so that they sample the host as those do.
		setupEnd := harness.Wallclock().Add(p.wall / 9)
		for n := 0; n == 0 || (harness.Wallclock().Before(setupEnd) && n < maxSetupPasses); n++ {
			setups = append(setups, setupPass(cells))
		}
		if harness.Wallclock().Add(p.wall + p.wall/9).After(deadline) {
			break
		}
	}
	for len(setups) < minSetupPasses {
		setups = append(setups, setupPass(cells))
	}
	fmt.Fprintf(out, "%d set-up passes, %d timed workload passes\n", len(setups), len(walls))
	return r.result(map[string]metric{
		"wall_s":        {medianOf(walls).Seconds(), "s"},
		"cpu_s":         {medianOf(cpus).Seconds(), "s"},
		"setup_s":       {medianOf(setups).Seconds(), "s"},
		"allocs":        {medianOf(allocs), "count"},
		"alloc_mb":      {medianOf(allocMB), "MB"},
		"peak_heap_mb":  {medianOf(peakMB), "MB"},
		"sim_elapsed_s": {simElapsed, "virt_s"},
	}), nil
}

// A run times at least minSetupPasses set-up passes, and at most
// maxSetupPasses between two workload passes.
const (
	minSetupPasses = 5
	maxSetupPasses = 200
)

// traced reports the per-layer metrics. After a warm-up pass it alternates
// untraced and traced passes while the budget lasts (at least one of each):
// the untraced ones give the cell spans, GC statistics and the base of
// trace.overhead_frac; the traced ones the event counts, dispatch and Send
// spans and the CPU profile. Every traced cell must reproduce its untraced
// fingerprint.
func traced(out io.Writer, cells []cell, workers int, deadline time.Time) (result, error) {
	r := newRunner(out, cells, workers)
	if _, err := r.run("warm-up", false); err != nil {
		return result{}, err
	}
	var plain, tpasses []pass
	for {
		p, err := r.run("untraced", false)
		if err != nil {
			return result{}, err
		}
		plain = append(plain, p)
		t, err := r.run("traced", true)
		if err != nil {
			return result{}, err
		}
		tpasses = append(tpasses, t)
		if harness.Wallclock().Add(p.wall + t.wall).After(deadline) {
			break
		}
	}

	n := float64(len(tpasses))
	tr := newTracer()
	prof := profileSplit{self: map[string]int64{}}
	var walls, twalls []time.Duration
	var cpu time.Duration
	for _, t := range tpasses {
		cpu += t.cpu
		tr.add(t.tracer())
		split, err := splitProfile(t.profile)
		if err != nil {
			return result{}, err
		}
		prof.add(split)
		twalls = append(twalls, t.wall)
	}
	// Every traced metric is per traced pass; the counts are identical in
	// each. netsim.send_ns is already a mean per call.
	m := tr.counts()
	pm := prof.metrics(cpu)
	for _, name := range sortedNames(pm) {
		m[name] = pm[name]
	}
	for _, name := range sortedNames(m) {
		if name != "netsim.send_ns" {
			v := m[name]
			v.Value /= n
			m[name] = v
		}
	}

	var p50s, maxes []time.Duration
	var utils, cycles, pauses []float64
	for _, p := range plain {
		p50, longest, util := p.cellSpans(workers)
		p50s, maxes, utils = append(p50s, p50), append(maxes, longest), append(utils, util)
		cycles = append(cycles, float64(p.gcCycles))
		pauses = append(pauses, p.gcPause.Seconds()*1e3)
		walls = append(walls, p.wall)
	}
	m["harness.cell_s_p50"] = metric{medianOf(p50s).Seconds(), "s"}
	m["harness.cell_s_max"] = metric{medianOf(maxes).Seconds(), "s"}
	m["harness.util"] = metric{medianOf(utils), "ratio"}
	m["runtime.gc_cycles"] = metric{medianOf(cycles), "count"}
	m["runtime.gc_pause_ms"] = metric{medianOf(pauses), "ms"}
	m["trace.overhead_frac"] = metric{float64(medianOf(twalls)) / float64(medianOf(walls)), "ratio"}
	fmt.Fprintf(out, "%d untraced and %d traced passes\n", len(plain), len(tpasses))
	return r.result(m), nil
}

func sortedNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
