package proto

import (
	"reflect"
	"strings"
	"testing"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// InvariantError dumps are read by humans diffing two failures of the same
// seed, so the rendering must be byte-stable: map-derived state has to come
// out sorted no matter what order the runtime iterates the maps in.
func TestInvariantErrorStableRendering(t *testing.T) {
	r := newRig(2)
	n := r.nodes[1]
	for _, p := range []pagemem.PageID{9, 3, 17, 5} {
		n.fetches.Set(p, &fetch{page: p})
	}
	for _, p := range []pagemem.PageID{12, 4, 8} {
		n.pf.Set(p, &pfState{})
	}

	first := n.newInvariantError(7, "test failure %d", 42)
	if want := []int64{3, 5, 9, 17}; !reflect.DeepEqual(first.InFlight, want) {
		t.Fatalf("InFlight = %v, want sorted %v", first.InFlight, want)
	}
	if want := []int64{4, 8, 12}; !reflect.DeepEqual(first.Prefetching, want) {
		t.Fatalf("Prefetching = %v, want sorted %v", first.Prefetching, want)
	}

	first.AttachEventTrace([]event.Event{
		event.Dispatch(1, nil),
		event.FaultRemote(1, 7, event.OutcomeNoPf, 2),
	})
	ref := first.Error()
	for _, frag := range []string{
		"test failure 42",
		"page=7",
		"in-flight fetches: [3 5 9 17]",
		"outstanding prefetches: [4 8 12]",
		"last 2 events:",
	} {
		if !strings.Contains(ref, frag) {
			t.Errorf("rendering lacks %q:\n%s", frag, ref)
		}
	}

	// Rebuild the error many times from the same node state: every capture
	// must render identically despite randomized map iteration order.
	for i := 0; i < 50; i++ {
		ie := n.newInvariantError(7, "test failure %d", 42)
		ie.Time = first.Time // capture time is the only legitimately varying field
		ie.AttachEventTrace(first.Events)
		if got := ie.Error(); got != ref {
			t.Fatalf("rendering unstable on rebuild %d:\n--- first\n%s\n--- now\n%s", i, ref, got)
		}
	}
}

// Demand fetches and prefetches started in descending page order must be
// captured ascending: the dump reads the page tables in page order.
func TestInvariantErrorPagesAscendingFromLiveState(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() {
		for _, p := range []pagemem.PageID{17, 12, 9, 8, 5, 4, 3} {
			r.write(0, p.Base(), 1)
		}
	})
	r.k.Run()
	r.barrierAll(0)

	var ie *InvariantError
	r.k.At(r.k.Now(), func() {
		n := r.nodes[1]
		for _, p := range []pagemem.PageID{17, 9, 5, 3} {
			n.Fault(p, func() {})
		}
		for _, p := range []pagemem.PageID{12, 8, 4} {
			if n.Prefetch(p) != 1 {
				t.Errorf("prefetch of page %d sent no request", p)
			}
		}
		ie = n.newInvariantError(-1, "probe")
	})
	r.k.Run()
	if want := []int64{3, 5, 9, 17}; !reflect.DeepEqual(ie.InFlight, want) {
		t.Errorf("InFlight = %v, want %v", ie.InFlight, want)
	}
	if want := []int64{4, 8, 12}; !reflect.DeepEqual(ie.Prefetching, want) {
		t.Errorf("Prefetching = %v, want %v", ie.Prefetching, want)
	}
}

// gcFlush's sanity check must name the lowest offending page, whatever
// order the pages became invalid in, so a chaos-soak failure dump replays
// byte for byte.
func TestGCFlushInvariantNamesLowestPage(t *testing.T) {
	r := newRig(2)
	n := r.nodes[1]
	for _, p := range []pagemem.PageID{40, 21, 6} {
		n.page(p).pending = []lrc.IntervalID{{Node: 0, Seq: 1}}
	}
	g, ok := n.gc.(*lrcGC)
	if !ok {
		t.Fatalf("default backend's GC is %T, want *lrcGC", n.gc)
	}
	defer func() {
		ie, ok := recover().(*InvariantError)
		if !ok {
			t.Fatal("gcFlush with pending notices did not raise an InvariantError")
		}
		if ie.Page != 6 || !strings.Contains(ie.Msg, "page 6") {
			t.Fatalf("invariant names page %d (%q), want the lowest, 6", ie.Page, ie.Msg)
		}
	}()
	g.gcFlush()
}

// AttachEventTrace must be first-writer-wins: the innermost kernel that
// catches the panic owns the history.
func TestAttachEventTraceFirstWins(t *testing.T) {
	ie := &InvariantError{Node: 0, Page: -1, Msg: "x"}
	a := []event.Event{event.Dispatch(1, nil)}
	b := []event.Event{event.Dispatch(2, nil), event.Dispatch(3, nil)}
	ie.AttachEventTrace(a)
	ie.AttachEventTrace(b)
	if len(ie.Events) != 1 {
		t.Fatalf("second attach overwrote the trace: %d events", len(ie.Events))
	}
}
