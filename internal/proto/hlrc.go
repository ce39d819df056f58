package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Home-based lazy release consistency (the "hlrc" backend). Every page has
// a static home node (page id mod N). Writers flush their diffs to the home
// eagerly when an interval closes, so the home's frame is always the most
// complete copy; a faulting node fetches the whole page from the home
// instead of collecting diffs from every writer. Consistency metadata
// (intervals, write notices, vector times) still flows lazily through the
// synchronization messages exactly as under LRC — only the data movement
// changes. Since diffs are applied at the home on arrival and never stored,
// there is no diff accumulation and no garbage collection.
//
// Ordering argument: a flush precedes any later request by the same node to
// the same home (per-pair FIFO, preserved by the reliable transport), so by
// the time the home serves a request the requester's own writes are already
// in the home frame, and a writer's flushed intervals arrive in increasing
// sequence order — which lets the home compress "intervals applied" into a
// per-page vector time (applied), with max sequence equal to full coverage.

// msgHomeFlush carries one interval's diff of one page to the page's home.
type msgHomeFlush struct {
	From int
	ID   lrc.IntervalID
	Page pagemem.PageID
	Diff *pagemem.Diff // nil when the twin comparison found no changes
}

// msgPageReq asks the home for a copy of Page covering the Need intervals.
// Prefetch requests use the same shape, served immediately with whatever
// the home currently covers.
type msgPageReq struct {
	From     int
	Page     pagemem.PageID
	Need     []lrc.IntervalID
	Prefetch bool
}

// msgPageReply returns a whole-page snapshot and the intervals it covers.
type msgPageReply struct {
	Page     pagemem.PageID
	Data     []byte
	Covers   []lrc.IntervalID
	Prefetch bool
}

// hlrcCoherence implements the home-based coherence policy.
type hlrcCoherence struct {
	n          *Node
	pf         *hlrcPrefetcher
	pfReliable bool

	// Home assignment: the table replica plus the migrate policy that moves
	// it. A nil mig is the static mod-N assignment and keeps every dynamic
	// code path (access counters, transfers, the notice filter) off, so the
	// engine stays byte-identical to fixed homes; the adaptive backend embeds
	// a static instance and counts at its own layer.
	homes *homeTable
	mig   *migratePolicy
	acc   *accSet

	// Home-side: applied[p][q] is the highest flushed interval sequence of
	// writer q applied to this node's frame of home page p.
	applied map[pagemem.PageID]lrc.VC

	// Home-side: demand requests waiting for flushes still in flight.
	parked map[pagemem.PageID][]*msgPageReq

	// Requester-side: every interval id already requested from the home
	// for the page's in-flight fetch (grows across re-requests).
	asked map[pagemem.PageID]map[lrc.IntervalID]bool

	// Dynamic-policy state (nil map reads are safe, so these stay nil under
	// static homes): pages whose home base has not been installed here
	// yet, and pages this node was home for and transferred away.
	xin  map[pagemem.PageID]*xferIn
	away map[pagemem.PageID]bool
}

func (c *hlrcCoherence) home(p pagemem.PageID) int { return c.homes.home(p) }

// covered reports (at the home) whether interval id's writes to page p are
// already in the local frame. The home's own intervals are always covered:
// its writes go straight to its frame.
func (c *hlrcCoherence) covered(p pagemem.PageID, id lrc.IntervalID) bool {
	if id.Node == c.n.ID {
		return true
	}
	ap := c.applied[p]
	return ap != nil && ap[id.Node] >= id.Seq
}

// AfterClose eagerly turns every page written during the interval into a
// diff and flushes it to the page's home. Pages homed here need no message:
// the local frame already holds the writes (covered() knows). Twins are
// dropped either way — under HLRC a diff never needs to be recreated.
func (c *hlrcCoherence) AfterClose(iv *lrc.Interval) {
	n := c.n
	var cost sim.Time
	for _, p := range iv.Pages {
		cost = c.flushPage(iv.ID, p, cost)
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// flushPage diffs one just-closed page and flushes it to its home. cost is
// the running CPU charge accumulated by the caller; sends drain it and the
// remainder is returned for the caller to charge.
func (c *hlrcCoherence) flushPage(id lrc.IntervalID, p pagemem.PageID, cost sim.Time) sim.Time {
	n := c.n
	ps := n.page(p)
	if !ps.twinned {
		n.pageInvariantf(p, "interval page %d lost its twin before the flush", p)
	}
	d := pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p))
	db := 0
	if d != nil {
		db = d.DataBytes()
	}
	n.bus.Emit(event.DiffMake(n.ID, int64(p), db))
	cost += n.C.DiffMake + sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize))
	n.Store.DropTwin(p)
	ps.twinned = false
	ps.hasUndiffed = false
	if c.mig != nil {
		c.acc.cell(p).writes++
	}
	home := c.home(p)
	if home == n.ID {
		if st := c.xin[p]; st != nil && !st.fill {
			// Our base is in flight here: the install would clobber these
			// writes, so route them through the buffered-flush replay.
			st.buf = append(st.buf, &msgHomeFlush{From: n.ID, ID: id, Page: p, Diff: d})
		}
		return cost
	}
	n.bus.Emit(event.HomeFlush(n.ID, home, int64(p), db))
	cost += n.C.MsgSend
	done := n.CPU.Service(cost, sim.CatDSM)
	n.sendAfter(done, c.flushMsg(home, &msgHomeFlush{From: n.ID, ID: id, Page: p, Diff: d}))
	return 0
}

// Handle dispatches the home-based coherence messages.
func (c *hlrcCoherence) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgHomeFlush:
		c.handleHomeFlush(pl)
	case *msgPageReq:
		c.handlePageReq(pl)
	case *msgPageReply:
		c.handlePageReply(pl)
	case *msgHomeXfer:
		c.handleHomeXfer(pl)
	default:
		return false
	}
	return true
}
