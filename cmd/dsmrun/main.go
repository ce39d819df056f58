// Command dsmrun runs one or more applications under one explicit
// configuration and prints their full measurement reports — the quickest
// way to explore one point of the design space.
//
// Usage:
//
//	dsmrun -app SOR [-procs 8] [-threads 1] [-prefetch]
//	       [-switch-miss] [-switch-sync] [-scale unit|small|paper]
//	       [-protocol lrc|erc|hlrc|adp] [-home-policy static|migrate]
//	       [-gc-threshold N]
//	       [-topology single|fattree] [-fattree-radix N]
//	       [-barrier central|tree] [-barrier-fanout N]
//	       [-gossip] [-gossip-fanout N] [-gossip-seed N]
//	       [-throttle N] [-verify] [-workers N]
//	       [-loss P] [-dup P] [-fault-seed N] [-trace out.json]
//	       [-race-check] [-race-granularity word|page]
//	       [-cpuprofile FILE] [-memprofile FILE]
//
// -protocol selects the coherence backend from the protocol registry
// (default lrc, the TreadMarks baseline). Unknown names and knob
// combinations the backend cannot honor (e.g. hlrc with -gc-threshold,
// which only the diff-based backends use, or -home-policy with any backend
// but hlrc) are rejected up front — as are
// machine shapes the simulator cannot build, like a fat tree over a
// non-power-of-two -procs.
//
// -topology, -barrier and -gossip select the scalable-machine pieces (the
// nodescale experiment's configuration): a multi-switch fat tree, the
// combining-tree barrier, and gossip write-notice dissemination for the
// diff-based protocols. The defaults — single switch, centralized barrier,
// no gossip — are the paper's machine, byte-identical to every earlier
// version of the simulator.
//
// A nonzero -loss or -dup enables deterministic fault injection (seeded by
// -fault-seed) and automatically switches the protocol onto its reliable
// ack/retransmit transport; the report then includes the transport's
// recovery counters.
//
// -race-check runs the application under the deterministic happens-before
// race detector: every shared access is checked against the ordering
// induced by Lock/Unlock and Barrier, and the first conflicting unordered
// pair aborts the run (exit 1) with a structured report naming both access
// sites. Checking charges no simulated time, so a clean checked run prints
// byte-identical output to an unchecked one. -race-granularity picks the
// conflict unit: word (8-byte, the default) or page (whole coherence pages,
// which also flags false sharing). Besides the eight applications, -app
// accepts the intentionally-racy fixtures RACY, RACY-STALE and RACY-EXEMPT
// (never part of "all") for exercising the detector.
//
// -trace streams the run's event bus as Chrome trace_event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing: one track per simulated
// processor plus a network track. Same seed, same trace — byte for byte.
//
// -cpuprofile and -memprofile write host pprof profiles of the dsmrun
// process itself (go tool pprof reads them) after a successful run; they
// change no simulated number and no byte of the report.
//
// -app accepts a single name, a comma-separated list, or "all". With more
// than one application the independent simulations fan out over a worker
// pool (-workers, default GOMAXPROCS) and the reports print in the
// requested order; each simulation stays single-threaded and
// deterministic, so the reports are identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/harness"
	"godsm/internal/netsim"
	"godsm/internal/proto"
	"godsm/internal/sim"
)

func main() {
	app := flag.String("app", "SOR", "application name(s): FFT, LU-NCONT, LU-CONT, OCEAN, RADIX, SOR, WATER-NSQ, WATER-SP; comma-separated list or \"all\"")
	procs := flag.Int("procs", 8, "simulated processors")
	threads := flag.Int("threads", 1, "user-level threads per processor")
	prefetch := flag.Bool("prefetch", false, "execute inserted prefetches")
	swMiss := flag.Bool("switch-miss", false, "switch threads on remote misses")
	swSync := flag.Bool("switch-sync", false, "switch threads on synchronization stalls")
	scale := flag.String("scale", "small", "input scale: unit, small or paper")
	protocol := flag.String("protocol", "", "coherence protocol: "+strings.Join(dsm.Protocols(), ", ")+" (default lrc)")
	homePolicy := flag.String("home-policy", "", "hlrc page-home assignment: "+strings.Join(dsm.HomePolicies(), ", ")+" (default static)")
	gcThreshold := flag.Int64("gc-threshold", 0, "diff-GC trigger in bytes at barriers, diff-based protocols only (0 = off)")
	topology := flag.String("topology", "", "interconnect topology: single (default, the paper's one-switch LAN) or fattree")
	fatTreeRadix := flag.Int("fattree-radix", 0, "fat-tree downward ports per switch, a power of two >= 2 (0 = default)")
	barrier := flag.String("barrier", "", "barrier algorithm: central (default) or tree (combining tree)")
	barrierFanout := flag.Int("barrier-fanout", 0, "combining-tree arity, >= 2 (0 = default)")
	gossip := flag.Bool("gossip", false, "disseminate write notices by gossip instead of erc's release broadcast (diff-based protocols only)")
	gossipFanout := flag.Int("gossip-fanout", 0, "peers per gossip round (0 = default)")
	gossipSeed := flag.Int64("gossip-seed", 0, "gossip peer-selection seed")
	throttle := flag.Int("throttle", 0, "drop every k-th prefetch (0 = off)")
	verify := flag.Bool("verify", false, "verify output against the sequential golden")
	kinds := flag.Bool("kinds", false, "print per-message-kind traffic table")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace_event JSON of the run to this file (single app only)")
	workers := flag.Int("workers", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
	raceCheck := flag.Bool("race-check", false, "detect data races against the Lock/Barrier happens-before order (exit 1 on the first race)")
	raceGran := flag.String("race-granularity", "", "race-detector conflict unit: word (default) or page")
	loss := flag.Float64("loss", 0, "message loss probability (nonzero enables fault injection)")
	dup := flag.Float64("dup", 0, "message duplication probability")
	faultSeed := flag.Int64("fault-seed", 1, "fault-injection PRNG seed")
	cpuProfile := flag.String("cpuprofile", "", "write a host CPU profile (pprof) of the run to this file")
	memProfile := flag.String("memprofile", "", "write a host heap profile (pprof) at exit to this file")
	flag.Parse()

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}

	// Reject incoherent flag combinations up front rather than silently
	// running something the user did not ask for.
	if *procs < 1 {
		usageErr("-procs must be at least 1 (got %d)", *procs)
	}
	if *threads < 1 {
		usageErr("-threads must be at least 1 (got %d)", *threads)
	}
	if *loss < 0 || *loss > 1 {
		usageErr("-loss must be a probability in [0,1] (got %g)", *loss)
	}
	if *dup < 0 || *dup > 1 {
		usageErr("-dup must be a probability in [0,1] (got %g)", *dup)
	}
	faultsOn := *loss > 0 || *dup > 0
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["fault-seed"] && !faultsOn {
		usageErr("-fault-seed given but fault injection is off; set -loss or -dup (or drop -fault-seed)")
	}
	// Reject dependent knobs whose master switch is off: silently ignoring
	// them would run a different machine than the user asked for.
	if set["fattree-radix"] && *topology != "fattree" {
		usageErr("-fattree-radix given but -topology is not fattree")
	}
	if set["barrier-fanout"] && *barrier != "tree" {
		usageErr("-barrier-fanout given but -barrier is not tree")
	}
	if (set["gossip-fanout"] || set["gossip-seed"]) && !*gossip {
		usageErr("gossip knobs given but -gossip is off")
	}
	if set["race-granularity"] && !*raceCheck {
		usageErr("-race-granularity given but -race-check is off")
	}
	if faultsOn && *faultSeed == 0 {
		usageErr("-fault-seed 0 is reserved (it reads as unset); pick a nonzero seed")
	}
	var names []string
	if *app == "all" {
		for _, spec := range apps.All {
			names = append(names, spec.Name)
		}
	} else {
		for _, a := range strings.Split(*app, ",") {
			names = append(names, strings.TrimSpace(a))
		}
	}
	for _, name := range names {
		if _, err := apps.ByName(name); err != nil {
			fatal(err)
		}
	}

	cfg := dsm.DefaultConfig()
	cfg.Procs = *procs
	cfg.ThreadsPerProc = *threads
	cfg.Prefetch = *prefetch
	cfg.SwitchOnMiss = *swMiss
	cfg.SwitchOnSync = *swSync || *threads > 1
	cfg.Protocol = *protocol
	cfg.HomePolicy = *homePolicy
	cfg.GCThreshold = *gcThreshold
	cfg.ThrottlePf = *throttle
	cfg.Net.Topology = *topology
	cfg.Net.FatTreeRadix = *fatTreeRadix
	cfg.Barrier = *barrier
	cfg.BarrierFanout = *barrierFanout
	cfg.Gossip = *gossip
	cfg.GossipFanout = *gossipFanout
	cfg.GossipSeed = *gossipSeed
	cfg.RaceCheck = *raceCheck
	cfg.RaceGranularity = *raceGran
	if err := dsm.ValidateMachineConfig(cfg); err != nil {
		usageErr("%v", err)
	}
	if faultsOn {
		cfg.Net.Faults = dsm.FaultPlan{Seed: *faultSeed, Loss: *loss, Dup: *dup}
	}

	// Open the trace file before simulating anything: an unwritable path is
	// a usage error, not something to discover after minutes of simulation.
	var traceFile *os.File
	if *tracePath != "" {
		if len(names) != 1 {
			usageErr("-trace needs a single -app (one trace file describes one run)")
		}
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			usageErr("-trace: %v", err)
		}
	}

	stopProfiles, err := harness.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		usageErr("%v", err)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fatal(err)
		}
	}()

	if len(names) == 1 {
		runOne(names[0], cfg, sc, *verify, *kinds, traceFile)
		return
	}

	// Fan the independent runs out over a bounded worker pool; print the
	// reports in the requested order as they complete.
	pool := *workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, pool)
	type result struct {
		sys  *dsm.System
		rep  *dsm.Report
		err  error
		done chan struct{}
	}
	results := make([]*result, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		results[i] = &result{done: make(chan struct{})}
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			r := results[i]
			defer close(r.done)
			sem <- struct{}{}
			defer func() { <-sem }()
			spec, err := apps.ByName(name)
			if err != nil {
				r.err = err
				return
			}
			sys := dsm.NewSystem(cfg)
			inst := spec.Build(sys, apps.Options{Scale: sc, Verify: *verify})
			rep, err := runChecked(sys, inst.Run)
			if err != nil {
				r.err = fmt.Errorf("%s: %w", name, err)
				return
			}
			if err := inst.Err(); err != nil {
				r.err = fmt.Errorf("%s: %w", name, err)
				return
			}
			r.sys, r.rep = sys, rep
		}(i, name)
	}
	for i, name := range names {
		r := results[i]
		<-r.done
		if r.err != nil {
			fatal(r.err)
		}
		if i > 0 {
			fmt.Println()
		}
		printReport(name, r.rep)
		if *kinds {
			printKinds(r.sys)
		}
	}
	wg.Wait()
}

// runOne runs the single-application path, optionally streaming the event
// bus to a Perfetto trace file.
func runOne(name string, cfg dsm.Config, sc apps.Scale, verify, kinds bool, traceFile *os.File) {
	spec, err := apps.ByName(name)
	if err != nil {
		fatal(err)
	}
	sys := dsm.NewSystem(cfg)

	var tw *event.TraceWriter
	if traceFile != nil {
		tw = event.NewTraceWriter(traceFile)
		sys.K.Bus().Subscribe(tw)
	}

	inst := spec.Build(sys, apps.Options{Scale: sc, Verify: verify})
	rep, err := runChecked(sys, inst.Run)
	if err != nil {
		fatal(err)
	}
	if err := inst.Err(); err != nil {
		fatal(err)
	}
	if tw != nil {
		if err := tw.Close(); err != nil {
			fatal(fmt.Errorf("writing trace: %w", err))
		}
		fmt.Fprintf(os.Stderr, "dsmrun: trace written to %s (open at ui.perfetto.dev)\n", traceFile.Name())
	}
	printReport(name, rep)
	if kinds {
		printKinds(sys)
	}
}

// runChecked calls sys.Run, converting the race detector's *dsm.RaceError
// panic into an error so a detected race prints as its structured two-site
// report (and exits 1) instead of a stack trace.
func runChecked(sys *dsm.System, body func(*dsm.Env)) (rep *dsm.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*dsm.RaceError)
			if !ok {
				panic(r)
			}
			err = re
		}
	}()
	return sys.Run(body), nil
}

// printKinds prints the per-message-kind traffic table (whole run,
// including any post-measurement verification traffic).
func printKinds(sys *dsm.System) {
	fmt.Println("traffic by message kind:")
	for k := netsim.Kind(0); k < netsim.MaxKinds; k++ {
		msgs, bytes := sys.Net.KindStats(k)
		if msgs == 0 {
			continue
		}
		fmt.Printf("  %-12s %8d msgs %10d KB\n", proto.KindName(k), msgs, bytes/1024)
	}
}

func printReport(app string, r *dsm.Report) {
	fmt.Printf("%s: %d procs x %d threads, elapsed %d us\n",
		app, r.Procs, r.Threads, r.Elapsed/sim.Microsecond)
	fmt.Println("breakdown (average over processors):")
	for _, c := range []sim.Category{dsm.CatBusy, dsm.CatDSM, dsm.CatMemIdle,
		dsm.CatSyncIdle, dsm.CatPrefetchOv, dsm.CatMTOv} {
		pct := r.Breakdown.Normalized(r.Elapsed)[c]
		fmt.Printf("  %-24s %8d us  %5.1f%%\n", c, r.Breakdown.Cat[c]/sim.Microsecond, pct)
	}
	n := r.Sum()
	fmt.Printf("memory:   %d remote misses (avg %d us), %d prefetch-cache hits\n",
		n.Misses, r.AvgMissLatency()/sim.Microsecond, n.CacheHits)
	fmt.Printf("sync:     %d remote lock acquires, %d local, %d barrier arrivals\n",
		n.RemoteLockAcqs, n.LocalLockAcqs, n.BarrierArrives)
	fmt.Printf("traffic:  %d messages, %d KB, %d drops\n",
		r.MsgsTotal, r.BytesTotal/1024, r.Drops)
	if n.PfCalls > 0 {
		fmt.Printf("prefetch: %d calls (%.1f%% unnecessary), %d messages, coverage %.1f%%\n",
			n.PfCalls, r.UnnecessaryPfPct(), n.PfMsgs, r.CoverageFactor())
		fmt.Printf("          outcomes: %d hit, %d late, %d invalidated, %d not prefetched\n",
			n.FaultPfHit, n.FaultPfLate, n.FaultPfInvalided, n.FaultNoPf)
	}
	if r.Threads > 1 {
		fmt.Printf("threads:  %d context switches, avg run length %d us, avg stall %d us\n",
			n.CtxSwitches, r.AvgRunLength()/sim.Microsecond, r.AvgStall()/sim.Microsecond)
	}
	fmt.Printf("protocol: %d twins, %d diffs made, %d diffs applied\n",
		n.TwinsMade, n.DiffsMade, n.DiffsApplied)
	if n.HomeFlushes+n.HomeFetches > 0 {
		fmt.Printf("home:     %d diff flushes (%d KB), %d page fetches (%d KB)\n",
			n.HomeFlushes, n.HomeFlushBytes/1024, n.HomeFetches, n.HomeFetchBytes/1024)
	}
	if n.HomeMigrations+n.ModeToHome+n.ModeToDiff > 0 {
		fmt.Printf("adaptive: %d home migrations (%d KB), %d pages to home mode, %d to diff mode\n",
			n.HomeMigrations, n.HomeMigrateBytes/1024, n.ModeToHome, n.ModeToDiff)
	}
	if n.Retransmits+n.Timeouts+n.AcksSent+n.DupSuppressed > 0 {
		fmt.Printf("transport: %d retransmits (%d timeouts, max RTO %d ms), %d acks, %d duplicates suppressed, %d/%d pf req/reply dropped\n",
			n.Retransmits, n.Timeouts, n.MaxBackoff/sim.Millisecond,
			n.AcksSent, n.DupSuppressed, n.PfReqDropped, n.PfReplyDropped)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}

// usageErr reports a command-line usage error and exits with status 2,
// pointing at -help rather than dumping the full flag table.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmrun: %s\n", fmt.Sprintf(format, args...))
	fmt.Fprintln(os.Stderr, "run dsmrun -help for usage")
	os.Exit(2)
}
