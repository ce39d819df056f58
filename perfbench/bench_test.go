package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"godsm/internal/event"
)

// testCells picks one cell from each workload: nT RADIX drives process
// handoff and diffs, FFT under adp runs the race hook and mode switches,
// and FFT under erc at 1024 nodes routes gossip through the fat tree.
func testCells(t *testing.T) []cell {
	t.Helper()
	want := map[string]string{
		"paper-grid":   "RADIX/4T",
		"checked-home": "FFT/O/adp",
		"scaled-1024":  "FFT/O/erc/1024",
	}
	var cells []cell
	for _, w := range workloads {
		found := false
		for _, c := range w.cells(7) {
			if c.name == want[w.name] {
				cells = append(cells, c)
				found = true
			}
		}
		if !found {
			t.Fatalf("workload %s has no cell %s", w.name, want[w.name])
		}
	}
	return cells
}

// TestTracingIsInvisible checks that the sink, the Send wrapper and the
// dispatch spans perturb no virtual time, and that the sink sees exactly
// the messages the network counts.
func TestTracingIsInvisible(t *testing.T) {
	for _, c := range testCells(t) {
		plain := runCell(c, nil)
		tr := newTracer()
		traced := runCell(c, tr)
		if plain.err != nil || traced.err != nil {
			t.Fatalf("%s: untraced err %v, traced err %v", c.name, plain.err, traced.err)
		}
		if plain.fp != traced.fp {
			t.Errorf("%s: tracing changed the report fingerprint", c.name)
		}
		sends := tr.kinds[event.KindNetEnqueue]
		if sends == 0 || sends != traced.msgs || sends != plain.msgs {
			t.Errorf("%s: sink saw %d sends, network counted %d (untraced %d)", c.name, sends, traced.msgs, plain.msgs)
		}
		if tr.sends != sends {
			t.Errorf("%s: Send wrapper timed %d calls, sink saw %d sends", c.name, tr.sends, sends)
		}
		if tr.kinds[event.KindDispatch] == 0 || tr.handoffs == 0 {
			t.Errorf("%s: no dispatches (%d) or handoffs (%d) traced", c.name, tr.kinds[event.KindDispatch], tr.handoffs)
		}
	}
}

// TestProfileSharesSumToTotal checks that the per-layer self times of a
// traced pass's CPU profile add up to the profiled total.
func TestProfileSharesSumToTotal(t *testing.T) {
	cells := testCells(t)
	p, err := runPass(cells, []int{0, 1, 2}, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if errs := p.failures(); len(errs) > 0 {
		t.Fatal(errs)
	}
	split, err := splitProfile(p.profile)
	if err != nil {
		t.Fatal(err)
	}
	if split.total <= 0 {
		t.Fatal("empty CPU profile")
	}
	var sum float64
	m := split.metrics(p.cpu)
	for _, name := range sortedNames(m) {
		if strings.HasSuffix(name, ".self_s") || strings.HasPrefix(name, "runtime.") {
			sum += m[name].Value
		}
	}
	if total := m["profile.total_s"].Value; math.Abs(sum-total) > 1e-9*total {
		t.Errorf("self times sum to %gs, profiled total is %gs", sum, total)
	}
	if split.access <= 0 || split.access > split.total {
		t.Errorf("access path %dns outside (0, total %dns]", split.access, split.total)
	}
}

// TestWorkloadContrast checks the layer contrast the workloads are chosen
// for, on a few representative cells of each: the race hook runs only on
// checked-home; the access path outside the race hook takes its largest
// share on paper-grid and its smallest on scaled-1024; proto and lrc take
// their largest share on scaled-1024.
func TestWorkloadContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles several seconds of simulation")
	}
	picks := map[string][]string{
		"paper-grid":   {"SOR/O", "LU-CONT/O", "RADIX/4T", "FFT/P"},
		"checked-home": {"SOR/O/hlrc", "RADIX/O/adp"},
		"scaled-1024":  {"SOR/O/lrc/1024", "FFT/O/erc/1024"},
	}
	type shares struct{ race, access, protoLRC float64 }
	got := map[string]shares{}
	for _, w := range workloads {
		var cells []cell
		for _, c := range w.cells(1) {
			for _, name := range picks[w.name] {
				if c.name == name {
					cells = append(cells, c)
				}
			}
		}
		order := make([]int, len(cells))
		for i := range order {
			order[i] = i
		}
		p, err := runPass(cells, order, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := decodeProfile(p.profile)
		if err != nil {
			t.Fatal(err)
		}
		var total, race, access, protoLRC int64
		for _, s := range samples {
			total += s.ns
			layer := layerOfStack(s.stack)
			switch layer {
			case "race":
				race += s.ns
			case "proto", "lrc":
				protoLRC += s.ns
			}
			if layer != "race" && onStack(s.stack, accessFunc) {
				access += s.ns
			}
		}
		if total == 0 {
			t.Fatalf("%s: empty profile", w.name)
		}
		sh := shares{float64(race) / float64(total), float64(access) / float64(total), float64(protoLRC) / float64(total)}
		t.Logf("%s: race %.3f, access outside race %.3f, proto+lrc %.3f of %.2fs", w.name, sh.race, sh.access, sh.protoLRC, float64(total)/1e9)
		got[w.name] = sh
	}
	pg, ch, sc := got["paper-grid"], got["checked-home"], got["scaled-1024"]
	if pg.race != 0 || sc.race != 0 || ch.race == 0 {
		t.Errorf("race share: paper-grid %.3f, scaled-1024 %.3f (want 0); checked-home %.3f (want > 0)", pg.race, sc.race, ch.race)
	}
	if !(pg.access > ch.access && ch.access > sc.access) {
		t.Errorf("access share outside race: paper-grid %.3f > checked-home %.3f > scaled-1024 %.3f does not hold", pg.access, ch.access, sc.access)
	}
	if !(sc.protoLRC > pg.protoLRC && sc.protoLRC > ch.protoLRC) {
		t.Errorf("proto+lrc share: scaled-1024 %.3f is not above paper-grid %.3f and checked-home %.3f", sc.protoLRC, pg.protoLRC, ch.protoLRC)
	}
}

func onStack(stack []string, fn string) bool {
	for _, f := range stack {
		if f == fn {
			return true
		}
	}
	return false
}

// TestUsageErrors checks that bad arguments exit non-zero without printing
// a result line.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{},
		{"--workload", "paper-grid", "--trace", "2"},
		{"--workload", "paper-grid", "--seconds", "0"},
		{"--workload", "paper-grid", "--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
		if strings.Contains(out.String(), `"correct"`) {
			t.Errorf("%v: printed a result: %s", args, out.String())
		}
	}
}
