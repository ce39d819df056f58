package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Diff garbage collection. TreadMarks's consistency records (intervals,
// write notices, diffs, twins) grow without bound between synchronization
// points; when storage exceeds a threshold the system performs a global
// collection at the next barrier: every processor validates all of its
// invalid pages (forcing every outstanding diff to be created and applied
// everywhere), after which all records can be discarded. The paper notes
// GC costs in two places: prefetching shortens GC by validating pages
// sooner, and the separate prefetch diff heap relieves storage pressure —
// both effects hold here because the prefetch cache is accounted
// separately and prefetched pages validate without network traffic.
//
// Protocol: barrier arrivals report each node's diff-storage size. If any
// exceeds the threshold, the release message carries a GC flag. Each node
// then fetches and applies every pending diff (normal fault machinery) and
// sends GC-DONE to the manager; when all N are done the manager broadcasts
// GC-FLUSH, nodes discard diffs/records below the current vector time, and
// only then do the barrier's waiters resume.

// msgGCDone tells the manager this node has validated all its pages.
type msgGCDone struct{ From int }

// msgGCFlush tells every node to discard collected state and release the
// barrier waiters.
type msgGCFlush struct{}

// lrcGC is the diff garbage collector used by the diff-based backends.
type lrcGC struct {
	n            *Node
	threshold    int64    // trigger a collection above this many bytes (0 = off)
	sharedPfHeap bool     // count the prefetch cache toward the trigger
	resume       func()   // stashed barrier release during a collection
	start        sim.Time // when the current collection began
	doneCount    int      // manager-side: nodes that completed validation
}

// ReportBytes returns the storage figure the barrier manager reports for
// itself. Remote arrivals ship raw diff bytes; only the manager's local
// report folds in the prefetch heap when the separate-heap relief is
// disabled (footnote 6's ablation measures the manager-triggered effect).
func (g *lrcGC) ReportBytes() int64 {
	report := g.n.diffBytes
	if g.sharedPfHeap {
		report += g.n.pfHeap
	}
	return report
}

// Exceeds reports whether a barrier arrival's storage figure should trigger
// a collection at the release.
func (g *lrcGC) Exceeds(reported int64) bool {
	return g.threshold > 0 && reported > g.threshold
}

// Handle dispatches the collection messages.
func (g *lrcGC) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgGCDone:
		g.gcDoneAtManager(pl.From)
	case *msgGCFlush:
		g.handleGCFlush()
	default:
		return false
	}
	return true
}

// gcValidate fetches and applies every pending diff at this node, then
// reports completion. onDone runs (in kernel context) when local
// validation finishes.
func (g *lrcGC) gcValidate(onDone func()) {
	n := g.n
	// Waves: fetching can itself surface new pending notices (interval
	// splits while serving, eager-RC broadcasts), so re-scan until clean.
	var wave func()
	wave = func() {
		// Collected first: the faults below add page-table entries.
		var pages []pagemem.PageID
		for p, ps := range n.pages.All() {
			if len(ps.pending) > 0 {
				pages = append(pages, p)
			}
		}
		if len(pages) == 0 {
			onDone()
			return
		}
		remaining := len(pages)
		for _, p := range pages {
			n.Fault(p, func() {
				remaining--
				if remaining == 0 {
					wave()
				}
			})
		}
	}
	wave()
}

// gcFlush discards all diffs, the prefetch cache, and interval records
// covered by the current vector time. Records below gcBase are gone; the
// protocol invariant (contiguity above gcBase) is maintained because every
// node's VC covers gcBase after the collection.
func (g *lrcGC) gcFlush() {
	n := g.n
	n.diffs = make(map[lrc.IntervalID]map[pagemem.PageID]*pagemem.Diff)
	n.diffBytes = 0
	n.pfHeap = 0
	n.pf.Reset()
	for q := 0; q < n.N; q++ {
		for s := range n.ivs[q] {
			if int32(s) < n.vc[q] {
				n.ivs[q][s] = nil
			}
		}
		n.gcBase[q] = n.vc[q]
	}
	// Sanity: validation must have drained every pending list and created
	// every outstanding own diff (each notice was pending somewhere).
	// Walked in page order so a violation deterministically reports the
	// lowest offending page — the chaos soak's failure dumps must reproduce
	// byte-identically.
	for p, ps := range n.pages.All() {
		if len(ps.pending) != 0 {
			n.pageInvariantf(p, "gcFlush with pending diffs on page %d", p)
		}
		if n.N > 1 && ps.hasUndiffed {
			n.pageInvariantf(p, "gcFlush with undiffed notice on page %d", p)
		}
	}
	n.bus.Emit(event.GCFlush(n.ID))
}

// gcSendDone reports local validation completion to the barrier manager.
func (g *lrcGC) gcSendDone() {
	n := g.n
	if n.ID == 0 {
		g.gcDoneAtManager(0)
		return
	}
	done := n.CPU.Service(n.C.MsgSend, sim.CatDSM)
	n.sendAfter(done, &netsim.Message{
		Src: netsim.NodeID(n.ID), Dst: 0,
		Size: n.C.HeaderBytes, Reliable: true, Kind: KindGCDone,
		Payload: &msgGCDone{From: n.ID},
	})
}

// gcDoneAtManager counts completions; the N-th broadcasts the flush.
func (g *lrcGC) gcDoneAtManager(from int) {
	n := g.n
	g.doneCount++
	if g.doneCount < n.N {
		return
	}
	g.doneCount = 0
	var cost sim.Time
	for q := 1; q < n.N; q++ {
		cost += n.C.MsgSend
		done := n.CPU.Service(cost, sim.CatDSM)
		cost = 0
		q := q
		n.sendAfter(done, &netsim.Message{
			Src: 0, Dst: netsim.NodeID(q),
			Size: n.C.HeaderBytes, Reliable: true, Kind: KindGCFlush,
			Payload: &msgGCFlush{},
		})
	}
	g.handleGCFlush()
}

// handleGCFlush finishes the collection locally and releases the barrier.
func (g *lrcGC) handleGCFlush() {
	n := g.n
	g.gcFlush()
	n.bus.Emit(event.GCDone(n.ID, n.K.Now()-g.start))
	cb := g.resume
	g.resume = nil
	if cb == nil {
		n.invariantf("GC flush without a pending barrier release")
	}
	done := n.CPU.Service(n.C.IntervalOp, sim.CatDSM)
	n.K.At(done, cb)
}

// Begin starts the validation phase after a GC-flagged barrier release;
// resume runs once the global collection completes.
func (g *lrcGC) Begin(resume func()) {
	n := g.n
	n.bus.Emit(event.GCBegin(n.ID))
	g.resume = resume
	g.start = n.K.Now()
	g.gcValidate(func() { g.gcSendDone() })
}

// noGC is the DiffGC of backends without consistency-record collection
// (HLRC: homes apply diffs eagerly, so storage never accumulates). Barrier
// arrivals still report raw diff bytes — always zero — and never trigger.
type noGC struct{ n *Node }

func (g noGC) ReportBytes() int64          { return g.n.diffBytes }
func (g noGC) Exceeds(int64) bool          { return false }
func (g noGC) Handle(*netsim.Message) bool { return false }
func (g noGC) Begin(func()) {
	g.n.invariantf("node %d: GC begin under a backend with no collector", g.n.ID)
}
