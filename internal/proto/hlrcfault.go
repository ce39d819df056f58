package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The requester side of the "hlrc" backend: resolving faults by fetching
// whole pages from the home, and the home node's own message-free parked
// faults (see hlrc.go for the protocol overview).

// Fault resolves an access to an invalid page: home pages wait (message-
// free) for the covering flushes; remote pages fetch a whole-page copy from
// the home, after flushing any local writes so the copy cannot clobber
// them. Concurrent faults join the in-flight fetch as under LRC.
func (c *hlrcCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	if n.PageValid(p) {
		n.pageInvariantf(p, "Fault on valid page %d", p)
	}
	if f := n.fetches.Get(p); f != nil {
		f.waiters = append(f.waiters, onValid)
		return
	}
	ps := n.page(p)
	pfst := n.pf.Get(p)
	n.pf.Delete(p)
	if c.mig != nil {
		c.acc.cell(p).faults++
	}

	if c.home(p) == n.ID {
		c.homeFault(p, ps, onValid)
		return
	}

	// Whole-page prefetch cache hit: the cached copy must cover every
	// pending interval AND the page must carry no unflushed local writes
	// (the stale copy would clobber them).
	if pg := c.pf.take(p); pg != nil && !ps.twinned && !anyOutside(ps.pending, pg.covers) {
		copy(n.Store.Frame(p), pg.data)
		ps.pending = ps.pending[:0]
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomePfHit))
		cost := n.C.FaultEntry + n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
		done := n.CPU.Service(cost, sim.CatDSM)
		n.K.At(done, onValid)
		return
	}

	// Classify the fault for Figure 3.
	var outcome int64
	switch {
	case pfst == nil:
		outcome = event.OutcomeNoPf
	case anyOutside(ps.pending, pfst.requested):
		outcome = event.OutcomePfInvalided
	default:
		outcome = event.OutcomePfLate
	}

	if ps.twinned {
		// Close the interval so our diff is flushed home ahead of the
		// request (per-pair FIFO): the reply's page copy then includes our
		// own writes, and the twin is gone before the copy overwrites the
		// frame.
		n.closeInterval()
	}

	need := append([]lrc.IntervalID(nil), ps.pending...)
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(need)))
	f := &fetch{
		page:    p,
		needed:  make(map[lrc.IntervalID]bool, len(need)),
		waiters: []func(){onValid},
		start:   n.K.Now(),
	}
	asked := make(map[lrc.IntervalID]bool, len(need))
	for _, id := range need {
		f.needed[id] = true
		asked[id] = true
	}
	n.fetches.Set(p, f)
	c.asked[p] = asked
	done := n.CPU.Service(n.C.FaultEntry+n.C.MsgSend, sim.CatDSM)
	n.sendAfter(done, &netsim.Message{
		Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(c.home(p)),
		Size:     n.C.HeaderBytes + n.C.ReqBytes + 12*len(need),
		Reliable: true, Kind: KindPageReq,
		Payload: &msgPageReq{From: n.ID, Page: p, Need: need},
	})
}

// homeFault handles a fault on a page homed at this node: the frame is
// already the most complete copy, so either every pending interval has been
// flushed in (validate locally, no traffic) or the fault parks until the
// missing flushes arrive.
func (c *hlrcCoherence) homeFault(p pagemem.PageID, ps *pageState, onValid func()) {
	n := c.n
	var uncovered []lrc.IntervalID
	for _, id := range ps.pending {
		if !c.covered(p, id) {
			uncovered = append(uncovered, id)
		}
	}
	if len(uncovered) == 0 {
		ps.pending = ps.pending[:0]
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomeNoPf))
		done := n.CPU.Service(n.C.FaultEntry, sim.CatDSM)
		n.K.At(done, onValid)
		return
	}
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), event.OutcomeNoPf, len(uncovered)))
	f := &fetch{
		page:    p,
		needed:  make(map[lrc.IntervalID]bool, len(uncovered)),
		waiters: []func(){onValid},
		start:   n.K.Now(),
	}
	for _, id := range uncovered {
		f.needed[id] = true
	}
	n.fetches.Set(p, f)
	n.CPU.Service(n.C.FaultEntry, sim.CatDSM)
}

// handlePageReply completes (or extends) an in-flight whole-page fetch.
func (c *hlrcCoherence) handlePageReply(rep *msgPageReply) {
	n := c.n
	if rep.Prefetch {
		c.pf.cacheReply(rep)
		return
	}
	f := n.fetches.Get(rep.Page)
	if f == nil {
		return
	}
	for _, id := range rep.Covers {
		delete(f.needed, id)
	}
	if len(f.needed) > 0 {
		return
	}
	// New notices may have been taken in while we waited; anything not yet
	// asked of the home needs another round trip (the reply predates it).
	ps := n.page(rep.Page)
	asked := c.asked[rep.Page]
	var fresh []lrc.IntervalID
	for _, id := range ps.pending {
		if !asked[id] {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 {
		for _, id := range fresh {
			f.needed[id] = true
			asked[id] = true
		}
		done := n.CPU.Service(n.C.MsgSend, sim.CatDSM)
		n.sendAfter(done, &netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(c.home(rep.Page)),
			Size:     n.C.HeaderBytes + n.C.ReqBytes + 12*len(fresh),
			Reliable: true, Kind: KindPageReq,
			Payload: &msgPageReq{From: n.ID, Page: rep.Page, Need: fresh},
		})
		return
	}
	// Complete: the final reply's snapshot is the newest and the home frame
	// only grows, so it covers every earlier reply too; all pending
	// intervals were asked and covered, so the whole list clears.
	copy(n.Store.Frame(rep.Page), rep.Data)
	ps.pending = ps.pending[:0]
	cost := n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
	done := n.CPU.Service(cost, sim.CatDSM)
	n.fetches.Delete(rep.Page)
	delete(c.asked, rep.Page)
	n.bus.Emit(event.HomeFetch(n.ID, c.home(rep.Page), int64(rep.Page), pagemem.PageSize))
	n.bus.Emit(event.FetchDone(n.ID, int64(rep.Page), done-f.start))
	waiters := f.waiters
	n.K.At(done, func() {
		for _, w := range waiters {
			w()
		}
	})
}
