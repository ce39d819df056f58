package main

import (
	"reflect"
	"strings"
	"time"

	"godsm/dsm"
	"godsm/internal/event"
	"godsm/internal/harness"
	"godsm/internal/netsim"
)

// Dispatch-span owners: the layer a kernel callback hands the host CPU to.
const (
	spanThread  = iota // process transfers and core's scheduler: app code, access path, race hook
	spanDeliver        // netsim delivery callbacks into proto and pagemem
	spanOther          // protocol timers and charges, and everything else
	numSpans
)

// tracer is one cell's traced view: an event.Bus sink counting events per
// kind, host-clock spans between kernel dispatches attributed to the
// dispatched callback's layer, and a timing wrapper around every node's
// Send. It reads the host clock only, so the simulation it observes is
// unchanged: the cell's Report.Fingerprint is the same with or without it.
type tracer struct {
	kinds     [256]int64 // events per event.Kind
	handoffs  int64      // dispatches whose callback is a process transfer
	sendBytes int64
	diffBytes int64
	queueVirt int64 // virtual ns messages spent queued on links
	spans     [numSpans]time.Duration
	sends     int64
	sendTime  time.Duration
	setup     time.Duration // dsm.NewSystem

	last     time.Time
	lastSpan int
	inSpan   bool
	owners   map[uintptr]owner // callback code pointer → its owner
}

// owner is the span a dispatched callback is charged to, and whether the
// callback is a process transfer.
type owner struct {
	span    int
	handoff bool
}

func newTracer() *tracer {
	return &tracer{owners: map[uintptr]owner{}}
}

// attach subscribes the sink to sys's bus and wraps every node's Send.
func (t *tracer) attach(sys *dsm.System) {
	sys.K.Bus().Subscribe(t)
	for _, node := range sys.Nodes {
		send := node.Send
		node.Send = func(m *netsim.Message) dsm.Time {
			start := harness.Wallclock()
			at := send(m)
			t.sendTime += harness.Wallclock().Sub(start)
			t.sends++
			return at
		}
	}
}

// Event implements event.Sink. A switch over event.Kind would have to list
// every kind (dsmvet's kindexhaustive), so the few kinds whose operands are
// summed are picked out with ifs.
func (t *tracer) Event(e event.Event) {
	t.kinds[e.Kind]++
	if e.Kind == event.KindDispatch {
		t.dispatch(e.Fn)
	} else if e.Kind == event.KindNetEnqueue {
		t.sendBytes += e.Arg
	} else if e.Kind == event.KindNetTransmit {
		t.queueVirt += e.Aux
	} else if e.Kind == event.KindDiffMake {
		t.diffBytes += e.Arg
	}
}

// dispatch closes the span of the previous callback and opens one for fn.
func (t *tracer) dispatch(fn any) {
	now := harness.Wallclock()
	t.closeSpan(now)
	pc := reflect.ValueOf(fn).Pointer()
	o, ok := t.owners[pc]
	if !ok {
		o = ownerOf(event.FuncName(fn))
		t.owners[pc] = o
	}
	if o.handoff {
		t.handoffs++
	}
	t.last, t.lastSpan, t.inSpan = now, o.span, true
}

// ownerOf classifies a dispatched callback by its function name.
func ownerOf(name string) owner {
	switch {
	case strings.HasPrefix(name, "godsm/internal/sim.(*Proc).transfer"),
		strings.HasPrefix(name, "godsm/internal/sim.(*Kernel).Spawn"):
		return owner{spanThread, true}
	case strings.HasPrefix(name, "godsm/internal/core."):
		return owner{spanThread, false}
	case strings.HasPrefix(name, "godsm/internal/netsim."):
		return owner{spanDeliver, false}
	}
	return owner{spanOther, false}
}

// closeSpan ends the running dispatch span at now; System.Run's return ends
// the last one.
func (t *tracer) closeSpan(now time.Time) {
	if t.inSpan {
		t.spans[t.lastSpan] += now.Sub(t.last)
		t.inSpan = false
	}
}

// add folds another cell's tracer into t.
func (t *tracer) add(o *tracer) {
	for k := range t.kinds {
		t.kinds[k] += o.kinds[k]
	}
	t.handoffs += o.handoffs
	t.sendBytes += o.sendBytes
	t.diffBytes += o.diffBytes
	t.queueVirt += o.queueVirt
	for s := range t.spans {
		t.spans[s] += o.spans[s]
	}
	t.sends += o.sends
	t.sendTime += o.sendTime
	t.setup += o.setup
}

// counts returns the traced per-layer counters and spans by metric name.
func (t *tracer) counts() map[string]metric {
	k := func(kind event.Kind) float64 { return float64(t.kinds[kind]) }
	var emits int64
	for _, n := range t.kinds {
		emits += n
	}
	sendNs := 0.0
	if t.sends > 0 {
		sendNs = float64(t.sendTime.Nanoseconds()) / float64(t.sends)
	}
	return map[string]metric{
		"sim.dispatches":        {k(event.KindDispatch), "count"},
		"sim.handoffs":          {float64(t.handoffs), "count"},
		"netsim.sends":          {k(event.KindNetEnqueue), "count"},
		"netsim.delivers":       {k(event.KindNetDeliver), "count"},
		"netsim.hops":           {k(event.KindNetHop), "count"},
		"netsim.send_bytes":     {float64(t.sendBytes), "bytes"},
		"netsim.queue_virt_us":  {float64(t.queueVirt) / 1e3, "virt_us"},
		"netsim.send_ns":        {sendNs, "ns"},
		"pagemem.twins":         {k(event.KindTwin), "count"},
		"pagemem.diffs_made":    {k(event.KindDiffMake), "count"},
		"pagemem.diff_bytes":    {float64(t.diffBytes), "bytes"},
		"pagemem.diffs_applied": {k(event.KindDiffApply), "count"},
		"proto.faults_remote":   {k(event.KindFaultRemote), "count"},
		"proto.faults_local":    {k(event.KindFaultLocal), "count"},
		"proto.intervals":       {k(event.KindIntervalClose), "count"},
		"proto.notices_in":      {k(event.KindNoticeIn), "count"},
		"proto.home_flushes":    {k(event.KindHomeFlush), "count"},
		"proto.home_fetches":    {k(event.KindHomeFetch), "count"},
		"proto.mode_switches":   {k(event.KindModeSwitch), "count"},
		"core.thread_switches":  {k(event.KindThreadSwitch), "count"},
		"event.emits":           {float64(emits), "count"},
		"core.setup_s":          {t.setup.Seconds(), "s"},
		"core.thread_s":         {t.spans[spanThread].Seconds(), "s"},
		"proto.deliver_s":       {t.spans[spanDeliver].Seconds(), "s"},
		"sim.other_s":           {t.spans[spanOther].Seconds(), "s"},
	}
}
