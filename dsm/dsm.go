// Package dsm is the public API of godsm, a deterministic simulation of a
// TreadMarks-style software distributed shared memory system with the
// latency tolerance techniques studied in Mowry, Chan & Lo, "Comparative
// Evaluation of Latency Tolerance Techniques for Software Distributed
// Shared Memory" (HPCA-4, 1998): software-controlled non-binding
// prefetching and user-level multithreading, individually and combined.
//
// A program builds a System from a Config, allocates shared memory with the
// system allocator, and calls Run with a thread body. The body receives an
// Env — the thread's handle for shared-memory accesses, synchronization,
// prefetching, and computation charging — and executes on every simulated
// thread (Procs × ThreadsPerProc of them), SPLASH-2 style. Run returns a
// Report with the paper's measurements: execution-time breakdown, miss and
// synchronization stalls, prefetch effectiveness, and traffic.
//
// Minimal example:
//
//	cfg := dsm.DefaultConfig()
//	cfg.Procs = 4
//	sys := dsm.NewSystem(cfg)
//	counter := sys.Alloc.Alloc(8, 8)
//	report := sys.Run(func(e *dsm.Env) {
//		e.Lock(0)
//		e.WriteI64(counter, e.ReadI64(counter)+1)
//		e.Unlock(0)
//		e.Barrier(0)
//	})
//
// All simulation is in virtual time: results are bit-for-bit reproducible
// and independent of the host machine. A System is single-threaded and
// shares no state with other Systems, so independent simulations may run
// concurrently (the experiment harness fans the paper's grid out over a
// worker pool this way) without perturbing any Report; Report.Fingerprint
// gives a deterministic rendering for comparing runs.
package dsm

import (
	"godsm/internal/core"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/proto"
	"godsm/internal/race"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// Time is virtual time in nanoseconds.
type Time = sim.Time

// Convenient virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Addr is an address in the shared virtual address space.
type Addr = pagemem.Addr

// PageSize is the coherence unit (4 KB).
const PageSize = pagemem.PageSize

// Env is a simulated thread's handle on the system. See the core package
// for the full method set: Read*/Write* accessors, Lock/Unlock, Barrier,
// Prefetch/PrefetchRange, Compute, and identification helpers.
type Env = core.Env

// Config selects the cluster size, latency-tolerance mode, network
// parameters and protocol cost model. The coherence protocol and its knobs
// (Protocol, HomePolicy, Barrier, Gossip, ...) come from the embedded
// protocol-engine Config, so they are set directly: cfg.Protocol = "hlrc".
type Config = core.Config

// System is one simulated cluster; create with NewSystem, then Run once.
type System = core.System

// Report is the result of a run: execution-time breakdown and all of the
// paper's statistics.
type Report = stats.Report

// Breakdown is a processor-time breakdown in the paper's categories.
type Breakdown = stats.Breakdown

// NodeStats are one processor's raw counters.
type NodeStats = stats.Node

// Processor-time categories (Figure 1's legend).
const (
	CatBusy       = sim.CatBusy
	CatDSM        = sim.CatDSM
	CatMemIdle    = sim.CatMemIdle
	CatSyncIdle   = sim.CatSyncIdle
	CatPrefetchOv = sim.CatPrefetchOv
	CatMTOv       = sim.CatMTOv
)

// NumCategories is the number of processor-time categories.
const NumCategories = int(sim.NumCategories)

// DefaultConfig returns the paper's baseline platform: 8 processors on a
// 155 Mbps ATM LAN, one thread per processor, prefetching off.
func DefaultConfig() Config { return core.DefaultConfig() }

// NewSystem builds a simulated cluster.
func NewSystem(cfg Config) *System { return core.NewSystem(cfg) }

// DefaultNetConfig returns the calibrated ATM network parameters.
func DefaultNetConfig() netsim.Config { return netsim.DefaultConfig() }

// FaultPlan describes deterministic network fault injection (loss,
// duplication, reordering jitter, link brown-outs, NIC stalls), seeded so
// every run replays exactly. Set it on Config.Net.Faults; a non-zero plan
// automatically switches the protocol to its reliable ack/retransmit
// transport. The zero plan injects nothing and leaves runs byte-identical
// to a fault-free network.
type FaultPlan = netsim.FaultPlan

// LinkFault is one transient window on a node's link, used by
// FaultPlan.Brownouts and FaultPlan.Stalls.
type LinkFault = netsim.LinkFault

// RaceError is the panic value System.Run raises when Config.RaceCheck is
// set and the application performs two conflicting shared accesses not
// ordered by Lock/Unlock, Barrier, or thread start/exit. It names both
// access sites (thread, processor, virtual time, access kind) and carries
// the recent event-bus history; rendering is deterministic, so the same
// configuration always reports the same race byte for byte. Recover it
// around Run to treat a race as a value:
//
//	defer func() {
//		if re, ok := recover().(*dsm.RaceError); ok { ... }
//	}()
type RaceError = race.RaceError

// DefaultCosts returns the calibrated protocol CPU cost model.
func DefaultCosts() proto.Costs { return proto.DefaultCosts() }

// Protocols returns the names of the registered coherence protocols, sorted
// ("lrc", "erc", "hlrc", ...). Set one on Config.Protocol; the empty string
// selects the default, "lrc".
func Protocols() []string { return proto.Names() }

// HomePolicies returns the selectable page→home assignment policies of the
// home-based protocol ("static", "migrate"). Set one on
// Config.HomePolicy together with Protocol "hlrc"; the empty string selects
// "static", the paper's fixed page-mod-N assignment.
func HomePolicies() []string { return proto.HomePolicies() }

// ValidateMachineConfig checks the whole machine configuration — processor
// and thread counts, interconnect topology (the fat tree needs power-of-two
// node counts and radices), barrier and gossip knobs, and the protocol
// combination — and reports the first problem as a plain error. NewSystem
// panics on the same mistakes; front ends validate user input with this
// first.
func ValidateMachineConfig(cfg Config) error {
	return core.ValidateMachine(cfg)
}
