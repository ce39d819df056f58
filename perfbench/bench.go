package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/harness"
)

// cellResult is one simulated, verified cell.
type cellResult struct {
	dur     time.Duration // set-up, simulation and verification
	elapsed dsm.Time      // Report.Elapsed
	fp      [32]byte      // sha256 of Report.Fingerprint
	msgs    int64         // messages the network counted
	err     error         // panic, race or golden mismatch
	tr      *tracer       // nil when untraced
}

// runCell builds, simulates and verifies one cell through the public calls
// a user makes: dsm.NewSystem, the app's Build, System.Run and Instance.Err.
// A panic (including a *dsm.RaceError) or a golden mismatch is the cell's
// error; it never escapes. With tr non-nil the cell is traced.
func runCell(c cell, tr *tracer) (res cellResult) {
	start := harness.Wallclock()
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Errorf("%s: panic: %v", c.name, r)
		}
		res.dur = harness.Wallclock().Sub(start)
		res.tr = tr
	}()
	sys := dsm.NewSystem(c.cfg)
	if tr != nil {
		tr.setup = harness.Wallclock().Sub(start)
		tr.attach(sys)
	}
	inst := c.app.Build(sys, apps.Options{Scale: c.scale, Verify: true})
	rep := sys.Run(inst.Run)
	msgs := sys.Net.TotalStats().MsgsSent
	if tr != nil {
		tr.closeSpan(harness.Wallclock())
		if got := tr.kinds[event.KindNetEnqueue]; got != msgs {
			return cellResult{err: fmt.Errorf("%s: sink saw %d sends, network counted %d", c.name, got, msgs)}
		}
	}
	if err := inst.Err(); err != nil {
		return cellResult{err: fmt.Errorf("%s: verification failed: %w", c.name, err)}
	}
	return cellResult{elapsed: rep.Elapsed, fp: sha256.Sum256([]byte(rep.Fingerprint())), msgs: msgs}
}

// setupPass times dsm.NewSystem plus the app's Build for every cell,
// serially, discarding the systems unrun. It starts from a fresh collection
// and pauses the collector while timing, so a pass is not charged for
// collecting garbage that earlier passes or simulations left behind.
func setupPass(cells []cell) time.Duration {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	start := harness.Wallclock()
	for _, c := range cells {
		sys := dsm.NewSystem(c.cfg)
		c.app.Build(sys, apps.Options{Scale: c.scale, Verify: true})
	}
	return harness.Wallclock().Sub(start)
}

// pass is one execution of every cell of a workload on the worker pool.
type pass struct {
	wall, cpu  time.Duration
	allocs     uint64
	allocBytes uint64
	peakHeap   uint64
	gcCycles   uint32
	gcPause    time.Duration
	cells      []cellResult
	profile    []byte // gzipped CPU profile; traced passes only
}

// runPass runs cells over workers goroutines, handing them out in the
// given order. A traced pass gives every cell a tracer and records a CPU
// profile of the whole pass.
func runPass(cells []cell, order []int, workers int, traced bool) (pass, error) {
	var p pass
	var prof bytes.Buffer
	runtime.GC() // start every pass from the same heap state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return p, fmt.Errorf("cpu profile: %w", err)
		}
	}
	cpu0 := processCPU()
	watch := startHeapWatch()
	start := harness.Wallclock()

	p.cells = make([]cellResult, len(cells))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				p.cells[i] = runCell(cells[i], tr)
			}
		}()
	}
	for _, i := range order {
		next <- i
	}
	close(next)
	wg.Wait()

	p.wall = harness.Wallclock().Sub(start)
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
	}
	p.peakHeap = watch.stop()
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	p.allocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC
	p.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return p, nil
}

// longestFirst returns the cell indices sorted by the pass's cell durations,
// longest first. Handing cells to the pool in that order keeps the last
// cells short, so the pass's wall time depends little on which worker
// happens to finish first.
func (p *pass) longestFirst() []int {
	order := make([]int, len(p.cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.cells[order[a]].dur > p.cells[order[b]].dur })
	return order
}

// failures returns the errors of the pass's failed cells.
func (p *pass) failures() []error {
	var errs []error
	for _, c := range p.cells {
		if c.err != nil {
			errs = append(errs, c.err)
		}
	}
	return errs
}

// simElapsed sums Report.Elapsed over the cells, in virtual seconds.
func (p *pass) simElapsed() float64 {
	var t dsm.Time
	for _, c := range p.cells {
		t += c.elapsed
	}
	return float64(t) / float64(dsm.Second)
}

// digest hashes every cell's fingerprint in cell order: equal digests mean
// every simulated number of the workload is equal.
func (p *pass) digest() string {
	h := sha256.New()
	for _, c := range p.cells {
		h.Write(c.fp[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// cellSpans returns the median and longest cell durations and the busy
// share of the workers over the pass.
func (p *pass) cellSpans(workers int) (p50, max time.Duration, util float64) {
	durs := make([]time.Duration, len(p.cells))
	var busy time.Duration
	for i, c := range p.cells {
		durs[i] = c.dur
		busy += c.dur
	}
	return medianOf(durs), slices.Max(durs), float64(busy) / float64(time.Duration(workers)*p.wall)
}

// tracer merges the pass's per-cell tracers.
func (p *pass) tracer() *tracer {
	t := newTracer()
	for _, c := range p.cells {
		if c.tr != nil {
			t.add(c.tr)
		}
	}
	return t
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // RUSAGE_SELF cannot fail on Linux
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapWatch records the largest live heap seen at the end of any garbage
// collection while it runs. A finalizer on a sentinel re-arms itself after
// every cycle, so no goroutine polls.
type heapWatch struct {
	mu      sync.Mutex
	peak    uint64
	stopped bool
}

type gcSentinel struct{ w *heapWatch }

func startHeapWatch() *heapWatch {
	w := &heapWatch{}
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{w}, func(s *gcSentinel) { s.w.observe() })
}

func (w *heapWatch) observe() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.stopped {
		return
	}
	w.peak = max(w.peak, liveHeap())
	w.arm()
}

// stop ends the watch and returns the peak, or the current live heap when
// no collection finished while it ran.
func (w *heapWatch) stop() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stopped = true
	if w.peak == 0 {
		return liveHeap()
	}
	return w.peak
}

// liveHeap reads the live heap measured by the last garbage collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// medianOf returns the median of xs without reordering them.
func medianOf[T float64 | time.Duration](xs []T) T {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
