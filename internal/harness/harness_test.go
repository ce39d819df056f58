package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
)

var update = flag.Bool("update", false, "rewrite testdata/experiments.golden")

// goldenPath holds every experiment's rendered output at unit scale on
// SOR and FFT, each preceded by an "== <id>" line.
const goldenPath = "testdata/experiments.golden"

func testSession() *Session {
	return NewSession(Options{Procs: 4, Scale: apps.Unit})
}

// TestEveryExperimentRuns executes each experiment end to end at unit scale
// on a reduced app set, sanity-checks the rendered output, and compares the
// concatenation of every experiment's output byte for byte with the golden
// file (regenerate it with -update).
func TestEveryExperimentRuns(t *testing.T) {
	wantMarker := map[string]string{
		"fig1":      "Figure 1",
		"fig2":      "speedup",
		"table1":    "Covrge%",
		"fig3":      "pf-hit%",
		"fig4":      "multithreading",
		"table2":    "AvgStall",
		"fig5":      "best:",
		"faults":    "schedule totals:",
		"protocols": "relative to lrc",
		"racecheck": "0 data races",
	}
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}})
	var all bytes.Buffer
	for _, e := range Experiments {
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		fmt.Fprintf(&all, "== %s\n%s", e.ID, out)
		if !strings.Contains(out, wantMarker[e.ID]) {
			t.Errorf("%s output missing %q:\n%s", e.ID, wantMarker[e.ID], out)
		}
		if !strings.Contains(out, "SOR") {
			t.Errorf("%s output missing app row", e.ID)
		}
	}
	if *update {
		if err := os.WriteFile(goldenPath, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(all.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w || i >= len(got) || i >= len(wantLines) {
			t.Fatalf("experiment output differs from %s at line %d (rerun with -update only for an intended change):\ngot:  %q\nwant: %q",
				goldenPath, i+1, g, w)
		}
	}
}

// TestSessionCaching: repeated runs of the same configuration must come
// from the cache (same pointer).
func TestSessionCaching(t *testing.T) {
	s := testSession()
	a, err := s.Run("SOR", VarO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("SOR", VarO)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("session did not cache the report")
	}
}

// TestCrossWorkerDeterminism proves the parallel runner's central claim:
// every app/variant pair produces a byte-identical dsm.Report (elapsed,
// breakdowns, all counters) whether simulations run strictly sequentially
// (workers=1) or fanned out over 8 workers.
func TestCrossWorkerDeterminism(t *testing.T) {
	opt := Options{Procs: 4, Scale: apps.Unit}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq := NewSession(optSeq)
	par := NewSession(optPar)
	if err := par.RunAll(par.Grid(AllVariants)); err != nil {
		t.Fatal(err)
	}
	if err := seq.RunAll(seq.Grid(AllVariants)); err != nil {
		t.Fatal(err)
	}
	for _, k := range seq.Grid(AllVariants) {
		a, err := seq.Run(k.App, k.Variant)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run(k.App, k.Variant)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
			t.Errorf("%s/%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s",
				k.App, k.Variant, fa, fb)
		}
	}
	if runs, _ := par.SimStats(); runs != int64(len(par.Grid(AllVariants))) {
		t.Errorf("parallel session simulated %d runs, want %d (no duplicates)",
			runs, len(par.Grid(AllVariants)))
	}
}

// TestFaultedCrossWorkerDeterminism extends the determinism claim to faulty
// networks: with a fault plan on every cell's Net.Faults, every app/variant
// report — including the retransmission and duplicate-suppression counters
// — must be byte-identical across worker counts, and a rerun with the same
// seed must reproduce it again.
func TestFaultedCrossWorkerDeterminism(t *testing.T) {
	plan := dsm.FaultPlan{Seed: 77, Loss: 0.02, Dup: 0.01,
		Reorder: 0.05, MaxJitter: dsm.Millisecond}
	opt := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "OCEAN"}}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par, rerun := NewSession(optSeq), NewSession(optPar), NewSession(optSeq)
	var cells []cell
	for _, k := range seq.Grid(FaultVariants) {
		cfg := seq.Config(k.App, k.Variant)
		cfg.Net.Faults = plan
		cells = append(cells, cell{k.App, cfg, true, k.App + "/" + string(k.Variant)})
	}
	var reps [3][]*dsm.Report
	for i, s := range []*Session{seq, par, rerun} {
		var err error
		if reps[i], err = s.runCells(cells); err != nil {
			t.Fatal(err)
		}
	}
	var exercised int64
	for i, c := range cells {
		fa, fb, fc := reps[0][i].Fingerprint(), reps[1][i].Fingerprint(), reps[2][i].Fingerprint()
		if fa != fb {
			t.Errorf("%s: faulted reports differ across worker counts:\nseq: %s\npar: %s",
				c.label, fa, fb)
		}
		if fa != fc {
			t.Errorf("%s: same fault seed did not reproduce:\n1st: %s\n2nd: %s",
				c.label, fa, fc)
		}
		n := reps[0][i].Sum()
		exercised += n.Retransmits + n.Timeouts + n.DupSuppressed + n.AcksSent
	}
	if exercised == 0 {
		t.Error("fault plan never exercised the reliable transport")
	}
}

// TestCrossProtocolDeterminism extends the determinism claim to every
// registered coherence protocol: each protocol-grid cell must produce a
// byte-identical report whether simulations run sequentially (workers=1) or
// fanned out over 8 workers, and a rerun must reproduce it again.
func TestCrossProtocolDeterminism(t *testing.T) {
	opt := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par, rerun := NewSession(optSeq), NewSession(optPar), NewSession(optPar)

	var cells []cell
	for _, proto := range dsm.Protocols() {
		for _, app := range opt.Apps {
			for _, v := range ProtocolVariants {
				cells = append(cells, cell{app, seq.protocolConfig(app, v, proto, ""), true,
					fmt.Sprintf("%s/%s under %s", app, v, proto)})
			}
		}
	}
	var reps [3][]*dsm.Report
	for i, s := range []*Session{seq, par, rerun} {
		var err error
		if reps[i], err = s.runCells(cells); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cells {
		fa, fb, fd := reps[0][i].Fingerprint(), reps[1][i].Fingerprint(), reps[2][i].Fingerprint()
		if fa != fb {
			t.Errorf("%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s",
				c.label, fa, fb)
		}
		if fb != fd {
			t.Errorf("%s: rerun did not reproduce:\n1st: %s\n2nd: %s",
				c.label, fb, fd)
		}
	}
}

// TestSingleflight: many goroutines racing on the same request — through
// Run or straight through RunCfg — must trigger exactly one simulation and
// all observe the same report pointer.
func TestSingleflight(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Workers: 4})
	cfg := s.Config("FFT", VarP)
	const callers = 16
	reps := make([]*dsm.Report, 2*callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Run("SOR", VarO)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}(i)
		go func(i int) {
			defer wg.Done()
			rep, err := s.RunCfg("FFT", cfg, false)
			if err != nil {
				t.Error(err)
				return
			}
			reps[callers+i] = rep
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if reps[i] != reps[0] || reps[callers+i] != reps[callers] {
			t.Fatal("concurrent callers got different report pointers")
		}
	}
	if runs, _ := s.SimStats(); runs != 2 {
		t.Fatalf("%d simulations ran, want 2 (singleflight)", runs)
	}
}

// TestRunCfgCacheKey: the cache key covers the whole configuration, nested
// fields included, and the verification flag. Configurations that differ
// only deep inside Net.Faults or Costs are distinct runs; the same
// configuration built twice is one run and returns one report pointer.
func TestRunCfgCacheKey(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR"}})
	faulted := func(to dsm.Time) dsm.Config {
		cfg := s.Config("SOR", VarO)
		cfg.Net.Faults = dsm.FaultPlan{Seed: 5, Loss: 0.01,
			Brownouts: []dsm.LinkFault{{Node: 1, From: dsm.Millisecond, To: to}}}
		return cfg
	}
	slowSend := s.Config("SOR", VarO)
	slowSend.Costs.MsgSend++

	// run returns the report and how many simulations the call started.
	run := func(cfg dsm.Config, verify bool) (*dsm.Report, int64) {
		t.Helper()
		before, _ := s.SimStats()
		rep, err := s.RunCfg("SOR", cfg, verify)
		if err != nil {
			t.Fatal(err)
		}
		after, _ := s.SimStats()
		return rep, after - before
	}

	a, _ := run(faulted(2*dsm.Millisecond), false)
	if b, n := run(faulted(2*dsm.Millisecond), false); b != a || n != 0 {
		t.Errorf("the same config built twice: same pointer %v, %d new simulations; want true, 0", b == a, n)
	}
	if _, n := run(faulted(3*dsm.Millisecond), false); n != 1 {
		t.Errorf("configs differing only in Net.Faults.Brownouts[0].To shared a cache entry")
	}
	base, _ := run(s.Config("SOR", VarO), false)
	if _, n := run(slowSend, false); n != 1 {
		t.Errorf("configs differing only in Costs.MsgSend shared a cache entry")
	}
	if rep, n := run(s.Config("SOR", VarO), true); rep == base || n != 1 {
		t.Errorf("verified and unverified requests shared a cache entry")
	}
	if rep, err := s.Run("SOR", VarO); err != nil || rep != base {
		t.Errorf("Run did not reuse RunCfg's entry for the same config: %v", err)
	}
}

// TestBadConfigIsAnError: a configuration the machine cannot build comes
// back from the grid as an error naming the problem, not as a panic in a
// worker goroutine.
func TestBadConfigIsAnError(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit})
	cfg := s.Config("SOR", VarO)
	cfg.Procs = 12
	cfg.Net.Topology = "fattree"
	_, err := s.runCells([]cell{{"SOR", cfg, false, "SOR/O/12/fattree"}})
	if err == nil || !strings.Contains(err.Error(), "fattree") {
		t.Fatalf("12-node fat tree: got error %v, want one naming fattree", err)
	}
	if runs, _ := s.SimStats(); runs != 0 {
		t.Errorf("%d simulations ran for an invalid config, want 0", runs)
	}
}

// TestPrewarm: prewarming the grid leaves rendering with pure cache hits.
func TestPrewarm(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR"}, Workers: 2})
	keys := PrewarmKeys(s, Experiments[:4]) // fig1..fig3: SOR × {O, P}
	if len(keys) != 2 {
		t.Fatalf("prewarm keys = %v, want SOR×{O,P}", keys)
	}
	s.Prewarm(keys)
	if err := s.RunAll(keys); err != nil {
		t.Fatal(err)
	}
	runsBefore, _ := s.SimStats()
	if runsBefore != 2 {
		t.Fatalf("%d simulations after prewarm, want 2", runsBefore)
	}
	var buf bytes.Buffer
	if err := RunFig2(s, &buf); err != nil {
		t.Fatal(err)
	}
	if runsAfter, _ := s.SimStats(); runsAfter != runsBefore {
		t.Errorf("rendering after prewarm re-simulated: %d -> %d runs", runsBefore, runsAfter)
	}
}

// TestConcurrentExperimentRendering: all experiments rendering at once
// against one session must produce exactly the output sequential rendering
// produces.
func TestConcurrentExperimentRendering(t *testing.T) {
	run := func(workers int) map[string]string {
		s := NewSession(Options{Procs: 4, Scale: apps.Unit,
			Apps: []string{"SOR", "FFT"}, Workers: workers})
		out := make([]bytes.Buffer, len(Experiments))
		var wg sync.WaitGroup
		for i, e := range Experiments {
			wg.Add(1)
			go func(i int, e Experiment) {
				defer wg.Done()
				if err := e.Run(s, &out[i]); err != nil {
					t.Error(err)
				}
			}(i, e)
		}
		wg.Wait()
		m := make(map[string]string)
		for i, e := range Experiments {
			m[e.ID] = out[i].String()
		}
		return m
	}
	seq := run(1)
	par := run(8)
	for id, want := range seq {
		if par[id] != want {
			t.Errorf("%s rendered differently under 8 workers:\n--- workers=1\n%s--- workers=8\n%s",
				id, want, par[id])
		}
	}
}

// TestVariantDecoding checks the paper-label decoding.
func TestVariantDecoding(t *testing.T) {
	cases := []struct {
		v        Variant
		threads  int
		prefetch bool
	}{
		{VarO, 1, false}, {VarP, 1, true},
		{Var2T, 2, false}, {Var4T, 4, false}, {Var8T, 8, false},
		{Var2TP, 2, true}, {Var4TP, 4, true}, {Var8TP, 8, true},
	}
	for _, c := range cases {
		if got := threadsOf(c.v); got != c.threads {
			t.Errorf("threadsOf(%s) = %d, want %d", c.v, got, c.threads)
		}
		if got := prefetching(c.v); got != c.prefetch {
			t.Errorf("prefetching(%s) = %v, want %v", c.v, got, c.prefetch)
		}
	}
}

// TestConfigModes: nT switches on both events; nTP on sync only; RADIX
// combined mode throttles prefetches.
func TestConfigModes(t *testing.T) {
	s := testSession()
	cfg := s.Config("FFT", Var4T)
	if !cfg.SwitchOnMiss || !cfg.SwitchOnSync || cfg.Prefetch {
		t.Errorf("4T config = %+v", cfg)
	}
	cfg = s.Config("FFT", Var4TP)
	if cfg.SwitchOnMiss || !cfg.SwitchOnSync || !cfg.Prefetch {
		t.Errorf("4TP config = %+v", cfg)
	}
	if s.Config("RADIX", Var2TP).ThrottlePf == 0 {
		t.Error("RADIX combined mode should throttle prefetches")
	}
	if s.Config("RADIX", VarP).ThrottlePf != 0 {
		t.Error("RADIX P mode should not throttle")
	}
	if s.Config("FFT", Var2TP).ThrottlePf != 0 {
		t.Error("only RADIX throttles")
	}
}

// TestByID resolves every listed experiment and rejects unknown ids with
// an error that lists the valid ones.
func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	_, err := ByID("nope")
	if err == nil {
		t.Fatal("ByID accepted an unknown id")
	}
	for _, e := range Experiments {
		if !strings.Contains(err.Error(), e.ID) {
			t.Errorf("ByID error %q does not list valid id %q", err, e.ID)
		}
	}
}

// TestVerifiedExperimentRun: an experiment with verification enabled must
// still succeed (the goldens hold under the harness configs).
func TestVerifiedExperimentRun(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Verify: true,
		Apps: []string{"OCEAN"}})
	var buf bytes.Buffer
	if err := RunFig2(s, &buf); err != nil {
		t.Fatal(err)
	}
}
