// Command dsmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsmbench [-exp all|fig1|fig2|table1|fig3|fig4|table2|fig5|...]
//	         [-scale unit|small|paper] [-procs N] [-apps FFT,SOR,...]
//	         [-protocol lrc|erc|hlrc|adp] [-workers N] [-json FILE] [-verify]
//	         [-cpuprofile FILE] [-memprofile FILE]
//
// Each experiment prints the same rows/series as the corresponding artifact
// in "Comparative Evaluation of Latency Tolerance Techniques for Software
// Distributed Shared Memory" (HPCA-4, 1998). The default scale is "small"
// (scaled-down inputs, minutes of wall time); "paper" uses the paper's
// input sizes.
//
// Independent simulations fan out over a worker pool (-workers, default
// GOMAXPROCS): the full run grid is prewarmed up front and the experiments
// render concurrently, while output still appears in paper order. Every
// simulation is single-threaded and deterministic, so results are
// byte-identical for any worker count. -json writes a machine-readable
// summary (the simulation time of the cells each experiment reads,
// aggregate simulation time, effective speedup over a sequential run) for
// tracking performance across commits. -cpuprofile and -memprofile write
// host pprof profiles of the dsmbench process after a successful run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/harness"
)

// benchResult is the machine-readable summary written by -json.
type benchResult struct {
	Date     string  `json:"date"`
	Scale    string  `json:"scale"`
	Procs    int     `json:"procs"`
	Workers  int     `json:"workers"`
	NumCPU   int     `json:"num_cpu"`
	TotalSec float64 `json:"total_wall_s"`
	// SimSec is the cumulative single-threaded simulation time: what a
	// sequential run of the same grid would have cost. SimSec/TotalSec is
	// the effective speedup from the parallel runner.
	SimSec      float64           `json:"sim_wall_s"`
	SimRuns     int64             `json:"sim_runs"`
	Speedup     float64           `json:"speedup_vs_sequential"`
	Experiments []experimentTimes `json:"experiments"`
	// Note records free-form context about the run environment (-note), so
	// a snapshot taken on an atypical box explains itself.
	Note string `json:"note,omitempty"`
}

// experimentTimes charges one experiment the summed simulation time of the
// cells it reads (harness.Session.SimTime). Experiments render
// concurrently and share cells, so these do not add up to sim_wall_s.
type experimentTimes struct {
	ID   string  `json:"id"`
	SimS float64 `json:"sim_s"`
}

func main() {
	exp := flag.String("exp", "all", "experiment id: all, "+strings.Join(harness.IDs(), ", "))
	scale := flag.String("scale", "small", "input scale: unit, small or paper")
	procs := flag.Int("procs", 8, "number of simulated processors")
	appList := flag.String("apps", "", "comma-separated application subset (default all)")
	protocol := flag.String("protocol", "", "coherence protocol for every run: "+strings.Join(dsm.Protocols(), ", ")+" (default lrc; the protocols experiment always compares all)")
	homePolicy := flag.String("home-policy", "", "hlrc page-home assignment for every run: "+strings.Join(dsm.HomePolicies(), ", ")+" (default static; the adaptive experiment always sweeps)")
	verify := flag.Bool("verify", false, "verify application output against sequential goldens")
	workers := flag.Int("workers", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "BENCH_dsmbench.json", "write a machine-readable timing summary here ('' = off)")
	note := flag.String("note", "", "free-form environment note recorded in the -json summary")
	nsProcs := flag.String("nodescale-procs", "", "comma-separated processor sweep for the nodescale experiment (default 8,64,256,1024)")
	nsJSON := flag.String("nodescale-json", "", "write the nodescale experiment's snapshot here ('' = off)")
	raceCheck := flag.Bool("race-check", false, "run every simulation under the happens-before race detector (the racecheck experiment always does)")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProfile := flag.String("memprofile", "", "write a host heap profile (pprof) at exit to this file")
	flag.Parse()

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opt := harness.Options{Procs: *procs, Scale: sc, Verify: *verify, Workers: *workers, Protocol: *protocol,
		HomePolicy: *homePolicy, NodeScaleJSON: *nsJSON, RaceCheck: *raceCheck}
	if *nsProcs != "" {
		for _, f := range strings.Split(*nsProcs, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &p); err != nil || p < 1 {
				fatal(fmt.Errorf("bad -nodescale-procs entry %q", f))
			}
			opt.NodeScaleProcs = append(opt.NodeScaleProcs, p)
		}
	}
	if *appList != "" {
		for _, a := range strings.Split(*appList, ",") {
			name := strings.TrimSpace(a)
			if _, err := apps.ByName(name); err != nil {
				fatal(err)
			}
			opt.Apps = append(opt.Apps, name)
		}
	}
	session := harness.NewSession(opt)
	// The session's base configuration carries -procs, -protocol,
	// -home-policy and -race-check; reject a bad combination before
	// anything simulates.
	if err := dsm.ValidateMachineConfig(session.Config(session.AppNames()[0], harness.VarO)); err != nil {
		fatal(err)
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		selected = []harness.Experiment{e}
	}

	stopProfiles, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	start := harness.Wallclock()
	// Schedule the full cached-run grid before any rendering starts, so
	// the worker pool is busy end to end; experiments then render
	// concurrently into buffers and print in paper order.
	session.Prewarm(harness.PrewarmKeys(session, selected))

	type rendered struct {
		out  strings.Builder
		err  error
		sim  time.Duration
		done chan struct{}
	}
	results := make([]*rendered, len(selected))
	var wg sync.WaitGroup
	for i, e := range selected {
		results[i] = &rendered{done: make(chan struct{})}
		wg.Add(1)
		go func(i int, e harness.Experiment) {
			defer wg.Done()
			r := results[i]
			view := session.Recording()
			r.err = e.Run(view, &r.out)
			r.sim = view.SimTime()
			close(r.done)
		}(i, e)
	}

	var times []experimentTimes
	for i, e := range selected {
		r := results[i]
		<-r.done
		if r.err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, r.err))
		}
		if i > 0 {
			fmt.Println()
		}
		os.Stdout.WriteString(r.out.String())
		fmt.Printf("[%s done, %.1fs simulation time]\n", e.ID, r.sim.Seconds())
		times = append(times, experimentTimes{ID: e.ID, SimS: r.sim.Seconds()})
	}
	wg.Wait()
	total := harness.Wallclock().Sub(start)

	simRuns, simWall := session.SimStats()
	speedup := 0.0
	if total > 0 {
		speedup = simWall.Seconds() / total.Seconds()
	}
	fmt.Printf("\n%d simulations, %.1fs simulation time on %d workers, %.1fs wall (%.2fx vs sequential)\n",
		simRuns, simWall.Seconds(), session.Workers(), total.Seconds(), speedup)

	if *jsonPath != "" {
		res := benchResult{
			Date:        harness.Wallclock().UTC().Format(time.RFC3339),
			Scale:       *scale,
			Procs:       *procs,
			Workers:     session.Workers(),
			NumCPU:      runtime.NumCPU(),
			TotalSec:    total.Seconds(),
			SimSec:      simWall.Seconds(),
			SimRuns:     simRuns,
			Speedup:     speedup,
			Experiments: times,
			Note:        *note,
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}
