// Package proto implements the software DSM protocol engine as a chassis
// plus pluggable policy subsystems. The chassis (Node) owns the state every
// backend shares — vector time, interval records, page table, diff store,
// in-flight fetch table, reliable transport — and delegates policy to the
// Coherence, SyncManager, Prefetcher and DiffGC implementations selected by
// a declarative Config through the protocol registry.
//
// Registered backends: "lrc" (TreadMarks-style lazy release consistency,
// the default), "erc" (eager release consistency: notices broadcast at
// every release), "hlrc" (home-based LRC: diffs flushed to per-page homes at
// release, whole-page fetches at fault time, no diff GC), and "adp"
// (adaptive: per-page switching between the diff-based and home-based
// regimes, driven by access counters at barrier episodes).
//
// File ownership:
//
//	protocol.go   Config and the subsystem interfaces
//	registry.go   backend registry (Register/Lookup/Names) and builders
//	node.go       the Node chassis: construction, page table, dispatch
//	intervals.go  interval records, write notices, vector-time intake
//	diffstore.go  diff storage, lazy own-diff creation, causal apply
//	lrc.go        lrcCoherence: demand diff fetch, eager-RC broadcast
//	prefetch.go   lrcPrefetcher: non-binding prefetch issue policy
//	locks.go      syncManager: distributed queue locks with token caching
//	barrier.go    syncManager: centralized barrier manager
//	barriertree.go deterministic combining-tree barrier (Barrier: "tree")
//	gossip.go     seeded deterministic gossip write-notice dissemination
//	gc.go         lrcGC (diff garbage collection) and noGC
//	hlrc.go       hlrcCoherence: protocol overview, types, release flush
//	hlrchome.go   hlrc home side: flush apply, parked requests, page serve
//	hlrcfault.go  hlrc requester side: whole-page fetch, home-local faults
//	hlrcpf.go     hlrcPrefetcher: whole-page prefetch cache
//	homepolicy.go pluggable page→home policies, episode access counters
//	homemigrate.go home-base transfers and late-flush forwarding (dynamic)
//	adp.go        adpCoherence: per-page diff/home mode switching
//	messages.go   wire message kinds and payload types
//	costs.go      CPU cost model and the sanctioned send choke points
//	transport.go  reliable ack/retransmit transport (fault injection)
//	errors.go     InvariantError and deterministic failure dumps
//
// Each simulated processor owns one Node. Nodes communicate only through
// the simulated network and execute protocol work on their simulated CPU,
// so all protocol costs land in the right processor-time categories.
package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Node is one processor's protocol engine chassis.
type Node struct {
	ID int
	N  int // number of processors

	K   *sim.Kernel
	CPU *sim.CPU
	C   *Costs
	bus *event.Bus // the kernel's event bus; counters and traces derive from it

	// Send transmits a message on the simulated network; injected by the
	// cluster wiring. Returns the delivery time or -1 if dropped.
	Send func(*netsim.Message) sim.Time

	Store *pagemem.Store

	mt bool // multithreading active: arrivals pay the async-signal surcharge

	// Policy subsystems, built by the configured backend (registry.go).
	coh  Coherence
	pfr  Prefetcher
	sync SyncManager
	gc   DiffGC

	// nf is coh's write-notice filter, cached to keep the intake path's
	// type assertion out of the per-notice loop; nil when coh has none.
	nf noticeFilter

	// Lazy release consistency state.
	vc  lrc.VC
	ivs [][]*lrc.Interval // ivs[node][seq-1]: all known interval records

	// Diff store: diffs[creator interval][page]. Holds both locally created
	// diffs and diffs fetched from other nodes; nil entries mark intervals
	// that produced no changes for the page.
	diffs map[lrc.IntervalID]map[pagemem.PageID]*pagemem.Diff

	// Per-page protocol state (created lazily; absence means valid+clean).
	pages pagemem.Table[*pageState]

	// Pages twinned during the current (open) interval; becomes the next
	// interval's write notices.
	pendingNotices []pagemem.PageID

	// Own intervals not yet shipped to the barrier manager.
	ownSinceBarrier []*lrc.Interval

	// In-flight demand fetches, by page (request combining).
	fetches pagemem.Table[*fetch]

	// Prefetch state, by page.
	pf        pagemem.Table[*pfState]
	pfHeap    int64 // bytes in the prefetch cache (the "separate heap")
	diffBytes int64 // bytes of ordinary stored diffs (GC accounting)

	// Deferred invalidations (barrier-manager server role; see
	// recordDeferred in intervals.go).
	deferredInval []*lrc.Interval
	deferredSet   map[lrc.IntervalID]bool

	// gcBase: records below this vector time have been collected (gc.go).
	gcBase lrc.VC

	// gossip disseminates write notices in deterministic rounds when the
	// Gossip knob is set (gossip.go); nil otherwise.
	gossip *gossiper

	// Reliable transport state, one peer per remote node; nil until
	// EnableTransport (transport.go). Nil means fiat delivery.
	xp []*xpPeer
}

// pageState tracks one page's coherence state at this node.
type pageState struct {
	// pending are write-notice intervals (by other nodes) whose diffs have
	// not yet been applied to the local frame. Non-empty means invalid.
	pending []lrc.IntervalID

	// twinned: the page has a twin and is collecting local modifications.
	twinned bool

	// undiffed: the (single) own write notice whose diff has not yet been
	// created; zero Node+Seq when none. See DESIGN.md §4.
	undiffed    lrc.IntervalID
	hasUndiffed bool
}

type fetch struct {
	page    pagemem.PageID
	needed  map[lrc.IntervalID]bool
	waiters []func()
	start   sim.Time

	// Adaptive-backend state (zero elsewhere): the whole-page snapshot a
	// hybrid fetch installs before its diffs, whether this fetch combines a
	// home copy with diff requests, and whether it is a home-elect's local
	// diff fill (adp.go). A fill carries the switch-time VC its frame must
	// cover, plus the previous home->diff switch VC that separates flush-era
	// pendings (resolved by flushes) from diff-era ones (fetched as diffs).
	pageData []byte
	hybrid   bool
	fill     bool
	fillVC   lrc.VC
	fillEx   lrc.VC
}

type pfState struct {
	requested map[lrc.IntervalID]bool // intervals the prefetch asked for
	inflight  int                     // outstanding request messages
}

// NewNode constructs a protocol node running the backend cfg selects. Wire
// Send before use. Protocol occurrences are emitted on k's event bus;
// subscribe a stats.Collector to derive per-node counters. NewNode panics
// on an invalid Config — callers validate user input with ValidateConfig
// first.
func NewNode(id, n int, k *sim.Kernel, cpu *sim.CPU, c *Costs, cfg Config) *Node {
	b, err := Lookup(cfg.Protocol)
	if err != nil {
		configInvariantf("proto: %v", err)
	}
	if err := validateCommon(cfg); err != nil {
		configInvariantf("proto: %v", err)
	}
	if b.Validate != nil {
		if err := b.Validate(cfg); err != nil {
			configInvariantf("proto: %v", err)
		}
	}
	nd := &Node{
		ID:     id,
		N:      n,
		K:      k,
		CPU:    cpu,
		C:      c,
		bus:    k.Bus(),
		Store:  pagemem.NewStore(),
		vc:     lrc.NewVC(n),
		ivs:    make([][]*lrc.Interval, n),
		diffs:  make(map[lrc.IntervalID]map[pagemem.PageID]*pagemem.Diff),
		gcBase: lrc.NewVC(n),
	}
	sub := b.Build(nd, cfg)
	nd.coh = sub.Coherence
	nd.pfr = sub.Prefetch
	nd.sync = sub.Sync
	nd.gc = sub.GC
	if f, ok := nd.coh.(noticeFilter); ok {
		nd.nf = f
	}
	return nd
}

// SetMT enables or disables the multithreading arrival surcharge.
func (n *Node) SetMT(on bool) { n.mt = on }

// VC returns the node's current vector time (read-only; do not mutate).
func (n *Node) VC() lrc.VC { return n.vc }

func (n *Node) page(p pagemem.PageID) *pageState {
	ps := n.pages.Get(p)
	if ps == nil {
		ps = &pageState{}
		n.pages.Set(p, ps)
	}
	return ps
}

// PageValid reports whether page p may be read locally without a fault.
func (n *Node) PageValid(p pagemem.PageID) bool {
	ps := n.pages.Get(p)
	return ps == nil || len(ps.pending) == 0
}

// PageWritable reports whether p is valid and already twinned, i.e. a write
// needs no protocol action.
func (n *Node) PageWritable(p pagemem.PageID) bool {
	ps := n.pages.Get(p)
	return ps != nil && len(ps.pending) == 0 && ps.twinned
}

// Frame exposes the local frame for direct data access by the env layer.
func (n *Node) Frame(p pagemem.PageID) []byte { return n.Store.Frame(p) }

// EnsureWritable prepares a valid page for local modification: on the first
// write since the page was last clean it creates the twin and records the
// pending write notice for the current open interval. The page must be
// valid.
func (n *Node) EnsureWritable(p pagemem.PageID) {
	ps := n.page(p)
	if len(ps.pending) != 0 {
		n.pageInvariantf(p, "EnsureWritable on invalid page %d (node %d)", p, n.ID)
	}
	if ps.twinned {
		return
	}
	n.Store.MakeTwin(p)
	n.bus.Emit(event.Twin(n.ID, int64(p)))
	ps.twinned = true
	n.pendingNotices = append(n.pendingNotices, p)
	n.CPU.Service(n.C.TwinMake, sim.CatDSM)
}

// Fault resolves an access to an invalid page through the backend's
// coherence policy. See Coherence.Fault.
func (n *Node) Fault(p pagemem.PageID, onValid func()) { n.coh.Fault(p, onValid) }

// Prefetch issues a non-binding prefetch through the backend's policy,
// returning the number of request messages sent.
func (n *Node) Prefetch(p pagemem.PageID) int { return n.pfr.Prefetch(p) }

// AcquireLock acquires lock id (see SyncManager.AcquireLock).
func (n *Node) AcquireLock(id int, onGranted func()) bool { return n.sync.AcquireLock(id, onGranted) }

// ReleaseLock releases lock id (see SyncManager.ReleaseLock).
func (n *Node) ReleaseLock(id int) { n.sync.ReleaseLock(id) }

// Barrier arrives at barrier id (see SyncManager.Barrier).
func (n *Node) Barrier(id int, onRelease func()) { n.sync.Barrier(id, onRelease) }

// PfHeapBytes returns the current size of the prefetch cache (the
// "separate heap managed by the garbage collector" in the paper).
func (n *Node) PfHeapBytes() int64 { return n.pfHeap }

// DiffHeapBytes returns the bytes of ordinary stored diffs.
func (n *Node) DiffHeapBytes() int64 { return n.diffBytes }

// Deliver receives an arriving network message. It charges receive-side
// CPU costs (plus the async-signal surcharge under multithreading), filters
// the message through the reliable transport when one is enabled (ack
// processing, duplicate suppression, reordering repair), and dispatches
// whatever becomes deliverable.
func (n *Node) Deliver(m *netsim.Message) {
	recv := n.C.MsgRecv
	if n.mt {
		recv += n.C.MTSig
	}
	n.CPU.Service(recv, sim.CatDSM)
	if n.xp != nil {
		n.xpReceive(m)
		return
	}
	n.dispatch(m)
}

// dispatch routes one in-order message through the subsystem handlers; a
// message no subsystem owns is a protocol invariant violation.
func (n *Node) dispatch(m *netsim.Message) {
	if n.sync.Handle(m) {
		return
	}
	if n.coh.Handle(m) {
		return
	}
	if n.gc.Handle(m) {
		return
	}
	if pl, ok := m.Payload.(*msgGossip); ok && n.gossip != nil {
		n.gossip.handle(pl)
		return
	}
	n.invariantf("node %d: unknown message payload %T (kind %s)", n.ID, m.Payload, KindName(m.Kind))
}
