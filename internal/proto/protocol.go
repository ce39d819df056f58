package proto

import (
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Config declaratively selects a protocol backend and its policy knobs.
// The zero value is the default TreadMarks-style lazy release consistency
// engine with every knob off. A Config is validated once (ValidateConfig)
// and then used to build one Subsystems set per node.
type Config struct {
	// Protocol names a registered backend ("lrc", "erc", "hlrc", "adp");
	// empty selects the default "lrc". Lookup lists the registered names.
	Protocol string

	// HomePolicy selects the page→home assignment policy of the home-based
	// backend: "static" (fixed page mod N; empty selects it, keeping the
	// default path byte-identical) or "migrate" (homes follow the dominant
	// accessor across barrier episodes). Only meaningful for "hlrc"; the
	// other backends reject a non-empty value ("adp" keeps homes static and
	// adapts the per-page protocol mode instead).
	HomePolicy string

	// ThrottlePf > 0 drops every ThrottlePf-th prefetch at issue time
	// (Section 5.1's RADIX optimization).
	ThrottlePf int

	// GCThreshold triggers diff garbage collection at barriers once a
	// node's diff storage exceeds it (bytes). Zero disables GC. Only
	// meaningful for diff-based backends; HLRC rejects it.
	GCThreshold int64

	// NoTokenCache returns the lock token to its manager at every release
	// (centralized locks): no last-holder re-acquire, and every acquire
	// pays the manager round trip.
	NoTokenCache bool

	// PfReliable makes prefetch messages reliable (never dropped), so
	// congested prefetches queue instead of falling back to demand fetches.
	PfReliable bool

	// PfHeapSharedGC counts the prefetch diff cache toward the GC trigger,
	// removing the paper's separate-heap relief (footnote 6). HLRC rejects
	// it along with the other diff-GC knobs.
	PfHeapSharedGC bool

	// Barrier selects the barrier implementation: "central" (the paper's
	// single manager on node 0; empty selects it, keeping the default path
	// byte-identical) or "tree" (a deterministic combining tree whose
	// arrivals combine interval/VC payloads upward and whose releases fan
	// down; see barriertree.go).
	Barrier string

	// BarrierFanout is the combining tree's arity; zero means
	// DefaultBarrierFanout. A fanout >= N-1 degenerates the tree to depth
	// one, which reproduces the central barrier's behaviour exactly.
	BarrierFanout int

	// Gossip replaces broadcast write-notice dissemination with seeded
	// deterministic gossip rounds (gossip.go): each interval close joins a
	// per-node hot set that is pushed, batched, to a fixed fanout of peers;
	// receivers relay records they had not seen. Diff-based backends only;
	// HLRC rejects it (notices travel through homes there).
	Gossip bool

	// GossipFanout is the number of peers each gossip round pushes to;
	// zero means DefaultGossipFanout. The first peer is always the ring
	// successor (guaranteeing every notice reaches every node); the rest
	// are a seeded deterministic sample.
	GossipFanout int

	// GossipSeed seeds the per-node long-link selection. Runs with equal
	// seeds are byte-identical.
	GossipSeed int64

	// GossipInterval is the batching delay between a record entering the
	// hot set and the round that pushes it; zero means
	// DefaultGossipInterval. The default spans a few message flight times,
	// so the records a node learns from several peers coalesce into one
	// push — with an interval at or below the flight time every trickled-in
	// record fires its own round and gossip degenerates to per-record
	// forwarding, costing more messages than the broadcast it replaces.
	GossipInterval sim.Time
}

// Defaults for the scalable-machine knobs.
const (
	DefaultBarrierFanout  = 4
	DefaultGossipFanout   = 2
	DefaultGossipInterval = 2 * sim.Millisecond
)

// The protocol engine is decomposed into four policy subsystems behind the
// interfaces below. The Node (node.go) is the shared chassis: it owns the
// vector time, interval records, page table, diff store, in-flight fetch
// table and transport, and delegates every policy decision to the
// subsystem set its backend built. Implementations are matched per
// backend — a backend's coherence half may reach into its own prefetcher
// directly — but the Node only ever calls through these seams.

// Coherence is the fault/validate/write-notice policy: what happens on an
// access to an invalid page, what happens when an interval closes, and how
// the backend's own wire messages are handled.
type Coherence interface {
	// Fault resolves an access to an invalid page. onValid runs (in
	// kernel context) once the page is valid; the caller parks the
	// faulting thread until then. Concurrent faults on the same page must
	// join the in-flight fetch (request combining).
	Fault(p pagemem.PageID, onValid func())

	// AfterClose runs immediately after the chassis closes a non-empty
	// interval: eager backends push write notices or flush diffs here.
	AfterClose(iv *lrc.Interval)

	// Handle dispatches one in-order coherence message; it reports false
	// for kinds the subsystem does not own.
	Handle(m *netsim.Message) bool
}

// SyncManager implements the synchronization side of the protocol: locks
// and barriers, including the consistency metadata they piggyback.
type SyncManager interface {
	// AcquireLock acquires lock id, reporting true if the acquire
	// completed immediately (cached token); otherwise onGranted runs (in
	// kernel context) when the grant arrives.
	AcquireLock(id int, onGranted func()) bool

	// ReleaseLock releases lock id, closing the current interval (the
	// release-consistency boundary).
	ReleaseLock(id int)

	// Barrier arrives at barrier id; onRelease runs (in kernel context)
	// when the barrier releases.
	Barrier(id int, onRelease func())

	// Handle dispatches one in-order synchronization message.
	Handle(m *netsim.Message) bool
}

// Prefetcher is the non-binding prefetch issue policy.
type Prefetcher interface {
	// Prefetch issues a software-controlled non-binding prefetch for page
	// p, returning the number of request messages sent (0 when dropped).
	Prefetch(p pagemem.PageID) int
}

// DiffGC is the consistency-record garbage collection policy, driven from
// the barrier code: arrivals report storage, the manager decides whether a
// collection runs before the release completes.
type DiffGC interface {
	// ReportBytes returns the storage figure this node reports with its
	// barrier arrival.
	ReportBytes() int64

	// Exceeds reports whether a reported figure should trigger a
	// collection at the next release.
	Exceeds(reported int64) bool

	// Begin starts a collection after a GC-flagged barrier release;
	// resume runs (in kernel context) once the global collection
	// completes.
	Begin(resume func())

	// Handle dispatches one in-order collection message.
	Handle(m *netsim.Message) bool
}

// Subsystems bundles the four policy implementations one backend built for
// one node.
type Subsystems struct {
	Coherence Coherence
	Prefetch  Prefetcher
	Sync      SyncManager
	GC        DiffGC
}
