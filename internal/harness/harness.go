// Package harness regenerates every table and figure of the paper's
// evaluation: Figure 1 (baseline breakdown), Figure 2 + Table 1 + Figure 3
// (prefetching), Figure 4 + Table 2 (multithreading), and Figure 5
// (combined). Each experiment runs the applications under the relevant
// configurations and renders the same rows/series the paper reports.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
)

// Variant names a run configuration using the paper's labels: "O"
// (original), "P" (prefetching), "2T"/"4T"/"8T" (multithreading), and
// "2TP"/"4TP"/"8TP" (combined: multithreading on synchronization only,
// prefetching for memory latency).
type Variant string

// The paper's configurations.
const (
	VarO   Variant = "O"
	VarP   Variant = "P"
	Var2T  Variant = "2T"
	Var4T  Variant = "4T"
	Var8T  Variant = "8T"
	Var2TP Variant = "2TP"
	Var4TP Variant = "4TP"
	Var8TP Variant = "8TP"
)

// threadsOf decodes the leading thread count ("4TP" → 4); 1 for O/P.
func threadsOf(v Variant) int {
	switch v[0] {
	case '2':
		return 2
	case '4':
		return 4
	case '8':
		return 8
	default:
		return 1
	}
}

// prefetching reports whether the variant executes inserted prefetches.
func prefetching(v Variant) bool {
	return v == VarP || v[len(v)-1] == 'P'
}

// AllVariants lists the paper's eight configurations in Figure 5 order.
var AllVariants = []Variant{VarO, Var2T, Var4T, Var8T, VarP, Var2TP, Var4TP, Var8TP}

// Options configure a harness session.
type Options struct {
	Procs int
	Scale apps.Scale
	// Verify re-checks application output against the goldens (slower).
	Verify bool
	// Apps restricts the application list (nil = all eight).
	Apps []string
	// Workers bounds how many simulations may run concurrently
	// (0 = runtime.GOMAXPROCS(0)). Each simulation is single-threaded and
	// deterministic; parallelism exists only between independent
	// simulations, so results are identical for every worker count.
	Workers int
	// Protocol selects the coherence backend for every run of the session
	// ("" = the default, lrc). The protocols experiment compares all
	// backends regardless of this option.
	Protocol string
	// HomePolicy selects the home-based backend's page→home assignment for
	// every run of the session ("" = static). Meaningful only when Protocol
	// is "hlrc"; the adaptive experiment sweeps policies regardless.
	HomePolicy string
	// NodeScaleProcs overrides the nodescale experiment's processor sweep
	// (nil = NodeScaleDefaultProcs). Fat-tree routing assumes powers of two.
	NodeScaleProcs []int
	// NodeScaleJSON, when non-empty, makes the nodescale experiment write
	// its machine-readable snapshot to this path.
	NodeScaleJSON string
	// RaceCheck runs every simulation of the session under the
	// happens-before race detector (dsm.Config.RaceCheck): a data race in
	// any application surfaces as a run error carrying the *dsm.RaceError.
	// The racecheck experiment forces this on regardless of the option.
	RaceCheck bool
}

// DefaultOptions mirrors the paper's platform: 8 processors, small scale.
func DefaultOptions() Options {
	return Options{Procs: 8, Scale: apps.Small}
}

// Session caches run results so that experiments sharing configurations
// (e.g. Table 1 and Figure 3, or the protocol and adaptive grids' lrc
// cells) do not re-simulate, and fans independent runs out over a bounded
// worker pool.
//
// Thread-safety contract: every Session method may be called from any
// number of goroutines concurrently. RunCfg — which every other run method
// calls — deduplicates in-flight work (singleflight): concurrent calls for
// the same app, configuration and verification flag trigger exactly one
// simulation and all receive the same *dsm.Report. The number of
// simulations executing at once never exceeds Options.Workers, no matter
// how many goroutines call in; excess callers queue. Experiment render
// functions may therefore run concurrently against one shared Session.
type Session struct {
	Opt Options

	sem chan struct{} // counting semaphore bounding concurrent simulations

	mu    sync.Mutex
	cache map[string]*flight

	simCount atomic.Int64 // simulations executed (cache misses)
	simWall  atomic.Int64 // cumulative wall nanoseconds spent simulating
}

// flight is one cached (possibly still running) simulation.
type flight struct {
	done chan struct{} // closed when rep/err are valid
	rep  *dsm.Report
	err  error
}

// NewSession creates a harness session.
func NewSession(opt Options) *Session {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Session{
		Opt:   opt,
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*flight),
	}
}

// Workers returns the effective worker-pool size.
func (s *Session) Workers() int { return cap(s.sem) }

// SimStats returns how many simulations have executed and their cumulative
// single-threaded wall time. Comparing the latter with the session's
// overall wall time gives the effective parallel speedup.
func (s *Session) SimStats() (runs int64, wall time.Duration) {
	return s.simCount.Load(), time.Duration(s.simWall.Load())
}

// AppNames returns the selected application names in figure order.
func (s *Session) AppNames() []string {
	if len(s.Opt.Apps) > 0 {
		return s.Opt.Apps
	}
	names := make([]string, len(apps.All))
	for i, a := range apps.All {
		names[i] = a.Name
	}
	return names
}

// Config builds the dsm.Config for an application/variant pair, encoding
// the paper's mode choices: "nT" switches on both miss and sync; "nTP"
// switches on sync only (Section 5); RADIX throttles every other prefetch
// in combined mode (Section 5.1).
func (s *Session) Config(app string, v Variant) dsm.Config {
	cfg := dsm.DefaultConfig()
	cfg.Procs = s.Opt.Procs
	cfg.ThreadsPerProc = threadsOf(v)
	cfg.Prefetch = prefetching(v)
	if cfg.ThreadsPerProc > 1 {
		cfg.SwitchOnSync = true
		cfg.SwitchOnMiss = !cfg.Prefetch // combined mode spins on misses
	}
	if app == "RADIX" && cfg.Prefetch && cfg.ThreadsPerProc > 1 {
		cfg.ThrottlePf = 2
	}
	cfg.Protocol = s.Opt.Protocol
	cfg.HomePolicy = s.Opt.HomePolicy
	cfg.RaceCheck = s.Opt.RaceCheck
	return cfg
}

// Run simulates one application under one variant (cached, singleflight).
// If another goroutine is already simulating the same pair, Run waits for
// its result instead of simulating again — so Fig2's "O" run and Fig4's
// "O" run simulate once even when the experiments render concurrently.
func (s *Session) Run(app string, v Variant) (*dsm.Report, error) {
	rep, err := s.RunCfg(app, s.Config(app, v), s.Opt.Verify)
	if err != nil {
		err = fmt.Errorf("%s/%s: %w", app, v, err)
	}
	return rep, err
}

// protocolConfig is the variant's configuration under the named coherence
// protocol and home policy (empty = the protocol's default assignment),
// regardless of the session's Protocol and HomePolicy options.
func (s *Session) protocolConfig(app string, v Variant, protocol, policy string) dsm.Config {
	cfg := s.Config(app, v)
	cfg.Protocol = protocol
	cfg.HomePolicy = policy
	return cfg
}

// RunCfg simulates one application under an explicit configuration, with
// golden-output verification on or off. It is the session's only
// simulation path: results are cached under the app, the whole
// configuration and the verification flag, so any two requests that differ
// in any field — however deeply nested — are distinct runs, and identical
// requests simulate once. Concurrent calls for the same request trigger
// exactly one simulation and all receive the same result (singleflight).
// A configuration the machine cannot build is reported as a plain error.
func (s *Session) RunCfg(app string, cfg dsm.Config, verify bool) (*dsm.Report, error) {
	// Every field of dsm.Config, nested ones included, is a plain value (no
	// pointers, maps, funcs or Stringers), so %+v is a complete and
	// deterministic rendering of the configuration.
	key := fmt.Sprintf("%s/%t/%+v", app, verify, cfg)
	s.mu.Lock()
	if f, ok := s.cache[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.rep, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.cache[key] = f
	s.mu.Unlock()

	f.rep, f.err = s.simulate(app, cfg, verify)
	close(f.done)
	return f.rep, f.err
}

// simulate runs one simulation on the worker pool.
func (s *Session) simulate(app string, cfg dsm.Config, verify bool) (*dsm.Report, error) {
	spec, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	// Reject configurations dsm.NewSystem would panic on here, rather than
	// inside a worker goroutine.
	if err := dsm.ValidateMachineConfig(cfg); err != nil {
		return nil, err
	}
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	start := Wallclock()
	sys := dsm.NewSystem(cfg)
	inst := spec.Build(sys, apps.Options{Scale: s.Opt.Scale, Verify: verify})
	rep, err := runSim(sys, inst.Run)
	s.simCount.Add(1)
	s.simWall.Add(int64(Wallclock().Sub(start)))
	if err != nil {
		return nil, err
	}
	if err := inst.Err(); err != nil {
		return nil, fmt.Errorf("verification failed: %w", err)
	}
	return rep, nil
}

// runSim calls sys.Run, converting a *dsm.RaceError panic into a plain
// error: a data race is a property of the application under test, not a
// harness bug, so it must surface as a run failure (with the full
// two-site report) rather than crash the whole experiment fan-out.
func runSim(sys *dsm.System, body func(*dsm.Env)) (rep *dsm.Report, err error) {
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

// RunKey names one cached simulation: an application/variant pair.
type RunKey struct {
	App     string
	Variant Variant
}

// Grid returns the cross product of the session's selected applications
// and the given variants, in rendering order.
func (s *Session) Grid(variants []Variant) []RunKey {
	var keys []RunKey
	for _, app := range s.AppNames() {
		for _, v := range variants {
			keys = append(keys, RunKey{app, v})
		}
	}
	return keys
}

// Prewarm schedules the given runs on the worker pool and returns
// immediately. Rendering code later calls Run in paper order and picks the
// finished (or in-flight) results out of the cache; errors surface there
// too.
func (s *Session) Prewarm(keys []RunKey) {
	for _, k := range keys {
		go s.Run(k.App, k.Variant)
	}
}

// RunAll simulates the given runs across the worker pool and blocks until
// all complete, returning the first error.
func (s *Session) RunAll(keys []RunKey) error {
	cells := make([]cell, len(keys))
	for i, k := range keys {
		cells[i] = cell{k.App, s.Config(k.App, k.Variant), s.Opt.Verify, k.App + "/" + string(k.Variant)}
	}
	_, err := s.runCells(cells)
	return err
}

// cell is one simulation of an experiment grid: an application under an
// explicit configuration, verified or not, and the label its error carries.
type cell struct {
	app    string
	cfg    dsm.Config
	verify bool
	label  string
}

// runCells simulates every cell concurrently through RunCfg — so the
// worker pool bounds the actual simulations and the cache shares runs
// between grids — and returns the reports in cell order, or the
// lowest-index cell's error prefixed with its label.
func (s *Session) runCells(cells []cell) ([]*dsm.Report, error) {
	reps := make([]*dsm.Report, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = s.RunCfg(c.app, c.cfg, c.verify)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].label, err)
		}
	}
	return reps, nil
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Session, w io.Writer) error
	// Variants is the cached-run grid the experiment reads (crossed with
	// the session's applications); drivers prewarm it so the whole grid
	// simulates in parallel while rendering stays in paper order. Nil for
	// experiments that fan out over explicit configs internally.
	Variants []Variant
}

// Experiments lists every artifact in paper order.
var Experiments = []Experiment{
	{ID: "fig1", Title: "Figure 1: execution time breakdown, TreadMarks baseline",
		Run: RunFig1, Variants: []Variant{VarO}},
	{ID: "fig2", Title: "Figure 2: performance impact of prefetching",
		Run: RunFig2, Variants: []Variant{VarO, VarP}},
	{ID: "table1", Title: "Table 1: prefetching statistics",
		Run: RunTable1, Variants: []Variant{VarO, VarP}},
	{ID: "fig3", Title: "Figure 3: breakdown of the original remote misses",
		Run: RunFig3, Variants: []Variant{VarP}},
	{ID: "fig4", Title: "Figure 4: performance impact of multithreading",
		Run: RunFig4, Variants: []Variant{VarO, Var2T, Var4T, Var8T}},
	{ID: "table2", Title: "Table 2: multithreading statistics",
		Run: RunTable2, Variants: []Variant{VarO, Var2T, Var4T, Var8T}},
	{ID: "fig5", Title: "Figure 5: combining prefetching and multithreading",
		Run: RunFig5, Variants: AllVariants},
}

// PrewarmKeys returns the union of the cached-run grids the given
// experiments will read, deduplicated, in first-use order.
func PrewarmKeys(s *Session, exps []Experiment) []RunKey {
	seen := make(map[RunKey]bool)
	var keys []RunKey
	for _, e := range exps {
		for _, k := range s.Grid(e.Variants) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// IDs returns every experiment id in Experiments order.
func IDs() []string {
	ids := make([]string, len(Experiments))
	for i, e := range Experiments {
		ids[i] = e.ID
	}
	return ids
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}
