package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// lrcCoherence is the TreadMarks-style coherence policy: page faults fetch
// the missing diffs from their creators (request combining, causal apply),
// and diffs are created lazily on first demand. With eager set the same
// engine runs as eager release consistency: every interval close broadcasts
// its write notices to all nodes (Munin-style), while data still moves as
// lazily-fetched diffs.
type lrcCoherence struct {
	n          *Node
	eager      bool // broadcast write notices at every interval close (ERC)
	pfReliable bool // prefetch replies ride the reliable transport
}

// Fault resolves an access to an invalid page. onValid runs (in kernel
// context) once the page is valid; the caller is expected to park the
// faulting thread until then. Concurrent faults on the same page join the
// in-flight fetch (request combining). Must be called from kernel context
// with the page invalid.
func (c *lrcCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	if n.PageValid(p) {
		n.pageInvariantf(p, "Fault on valid page %d", p)
	}
	if f := n.fetches.Get(p); f != nil {
		f.waiters = append(f.waiters, onValid)
		return
	}

	missing := n.missingDiffs(p)
	pfst := n.pf.Get(p)
	n.pf.Delete(p)

	if len(missing) == 0 {
		// Everything needed is already local (prefetch diff cache): apply
		// without any network traffic. This is the paper's "pf-hit".
		outcome := event.OutcomeNoPf
		if pfst != nil {
			outcome = event.OutcomePfHit
		}
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), outcome))
		cost := n.C.FaultEntry + n.applyPending(p)
		done := n.CPU.Service(cost, sim.CatDSM)
		n.K.At(done, onValid)
		return
	}

	// Classify the fault for Figure 3.
	var outcome int64
	switch {
	case pfst == nil:
		outcome = event.OutcomeNoPf
	case anyOutside(missing, pfst.requested):
		outcome = event.OutcomePfInvalided
	default:
		outcome = event.OutcomePfLate
	}
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(missing)))

	f := &fetch{
		page:    p,
		needed:  make(map[lrc.IntervalID]bool, len(missing)),
		waiters: []func(){onValid},
		start:   n.K.Now(),
	}
	n.fetches.Set(p, f)
	c.issueDiffRequests(f, missing, n.C.FaultEntry)
}

func anyOutside(ids []lrc.IntervalID, set map[lrc.IntervalID]bool) bool {
	for _, id := range ids {
		if !set[id] {
			return true
		}
	}
	return false
}

// issueDiffRequests sends one reliable diff request per distinct creator
// for the missing intervals, charging extraCost plus per-message send cost.
func (c *lrcCoherence) issueDiffRequests(f *fetch, missing []lrc.IntervalID, extraCost sim.Time) {
	n := c.n
	nodes, groups := groupByNode(missing)
	var msgs []*netsim.Message
	for _, node := range nodes {
		ids := groups[node]
		for _, id := range ids {
			f.needed[id] = true
		}
		msgs = append(msgs, &netsim.Message{
			Src:      netsim.NodeID(n.ID),
			Dst:      netsim.NodeID(node),
			Size:     n.C.HeaderBytes + n.C.ReqBytes + 8*len(ids),
			Reliable: true,
			Kind:     KindDiffReq,
			Payload:  &msgDiffReq{From: n.ID, Page: f.page, Wants: ids},
		})
	}
	done := n.CPU.Service(extraCost+sim.Time(len(msgs))*n.C.MsgSend, sim.CatDSM)
	for _, m := range msgs {
		n.sendAfter(done, m)
	}
}

// groupByNode buckets interval ids by creator. The returned node list is in
// first-appearance order so that callers iterate deterministically.
func groupByNode(ids []lrc.IntervalID) ([]int, map[int][]lrc.IntervalID) {
	g := make(map[int][]lrc.IntervalID)
	var order []int
	for _, id := range ids {
		if _, ok := g[id.Node]; !ok {
			order = append(order, id.Node)
		}
		g[id.Node] = append(g[id.Node], id)
	}
	return order, g
}

// handleDiffReq services a demand or prefetch diff request: it lazily
// creates the diff for this node's undiffed write notice if that notice is
// requested, then replies with every requested diff.
func (c *lrcCoherence) handleDiffReq(req *msgDiffReq) {
	n := c.n
	ps := n.page(req.Page)
	var cost sim.Time
	items := make([]diffItem, 0, len(req.Wants))
	for _, id := range req.Wants {
		if id.Node != n.ID {
			n.pageInvariantf(req.Page, "node %d asked for diff created by node %d", n.ID, id.Node)
		}
		if ps.hasUndiffed && ps.undiffed == id {
			cost += n.makeOwnDiff(req.Page)
			if req.Prefetch {
				// The paper: prefetch requests are more expensive to
				// service since they split the interval on a dirty page.
				cost += n.C.PfSplit
			}
		}
		d, ok := n.storedDiff(id, req.Page)
		if !ok {
			n.pageInvariantf(req.Page, "node %d has no diff for %v page %d", n.ID, id, req.Page)
		}
		items = append(items, diffItem{ID: id, Diff: d})
	}
	reply := &msgDiffReply{Page: req.Page, Items: items, Prefetch: req.Prefetch}
	m := &netsim.Message{
		Src:      netsim.NodeID(n.ID),
		Dst:      netsim.NodeID(req.From),
		Size:     n.C.diffReplySize(items),
		Reliable: !req.Prefetch || c.pfReliable,
		Kind:     KindDiffReply,
		Payload:  reply,
	}
	if req.Prefetch {
		m.Kind = KindPfReply
	}
	done := n.CPU.Service(cost+n.C.MsgSend, sim.CatDSM)
	n.sendAfter(done, m)
}

// handleDiffReply stores arriving diffs and completes any in-flight demand
// fetch they satisfy.
func (c *lrcCoherence) handleDiffReply(rep *msgDiffReply) {
	n := c.n
	for _, it := range rep.Items {
		n.putDiff(it.ID, rep.Page, it.Diff, rep.Prefetch)
	}
	if pfst := n.pf.Get(rep.Page); pfst != nil && rep.Prefetch && pfst.inflight > 0 {
		// Clamped: a fault-injected duplicate reply must not drive the
		// outstanding-request count negative.
		pfst.inflight--
	}

	f := n.fetches.Get(rep.Page)
	if f == nil {
		return
	}
	for _, it := range rep.Items {
		delete(f.needed, it.ID)
	}
	if len(f.needed) > 0 {
		return
	}
	// All requested diffs arrived — but new write notices may have been
	// taken in while we waited (another thread acquiring a lock); if so,
	// keep fetching.
	if missing := n.missingDiffs(f.page); len(missing) > 0 {
		c.issueDiffRequests(f, missing, 0)
		return
	}
	cost := n.applyPending(f.page)
	done := n.CPU.Service(cost, sim.CatDSM)
	n.fetches.Delete(f.page)
	n.bus.Emit(event.FetchDone(n.ID, int64(f.page), done-f.start))
	waiters := f.waiters
	n.K.At(done, func() {
		for _, w := range waiters {
			w()
		}
	})
}

// AfterClose publishes the just-closed interval's write notices: to the
// gossip engine when one is configured (which replaces ERC's O(N)
// broadcast and pre-spreads notices under plain LRC), else by broadcast
// when running as eager release consistency. The lazy default does nothing.
func (c *lrcCoherence) AfterClose(iv *lrc.Interval) {
	if c.n.gossip != nil {
		c.n.gossip.Publish(iv)
		return
	}
	if c.eager {
		c.broadcastNotice(iv)
	}
}

// broadcastNotice pushes a just-closed interval's write notices to every
// other node (eager release consistency).
func (c *lrcCoherence) broadcastNotice(iv *lrc.Interval) {
	n := c.n
	size := n.C.HeaderBytes + 8 + 4*n.N + n.C.PerNoticeByt*len(iv.Pages)
	var cost sim.Time
	for q := 0; q < n.N; q++ {
		if q == n.ID {
			continue
		}
		cost += n.C.MsgSend
		done := n.CPU.Service(cost, sim.CatDSM)
		cost = 0
		n.sendAfter(done, &netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(q),
			Size: size, Reliable: true, Kind: KindEagerNotice,
			Payload: &msgEagerNotice{Iv: iv},
		})
	}
}

// handleEagerNotice records and applies an eagerly-pushed write notice.
// Only the creator's own vector entry is advanced: per-pair FIFO delivery
// guarantees the creator's records arrive contiguously, and advancing it
// keeps this node's subsequent intervals causally after the data they may
// come to depend on. Third-party entries of the interval's VC are NOT
// merged (their records may not have arrived yet).
func (c *lrcCoherence) handleEagerNotice(m *msgEagerNotice) {
	n := c.n
	iv := m.Iv
	cost := n.recordInterval(iv)
	if n.vc[iv.ID.Node] < iv.ID.Seq {
		n.vc[iv.ID.Node] = iv.ID.Seq
	}
	n.CPU.Service(cost, sim.CatDSM)
}

// Handle dispatches the diff-fetch and eager-notice messages.
func (c *lrcCoherence) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgDiffReq:
		c.handleDiffReq(pl)
	case *msgDiffReply:
		c.handleDiffReply(pl)
	case *msgEagerNotice:
		c.handleEagerNotice(pl)
	default:
		return false
	}
	return true
}
