package proto

import (
	"fmt"
	"sort"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// Backend is one registered coherence protocol: a name, a one-line
// description, an optional config validator, and a builder producing the
// per-node subsystem set.
type Backend struct {
	Name string
	Doc  string

	// Validate rejects Config combinations the backend cannot honor; nil
	// accepts everything.
	Validate func(cfg Config) error

	// Build constructs the backend's subsystems for one node. It runs
	// during NewNode, after the chassis state is initialized.
	Build func(n *Node, cfg Config) Subsystems
}

// The registry is populated at init time (and by tests); simulations only
// read it, so no locking is needed beyond Go's init ordering.
var registry = map[string]*Backend{}

// Register adds a backend to the protocol registry. It panics on a
// duplicate or empty name — registration happens at init time, where a
// conflict is a programming error.
func Register(b *Backend) {
	if b.Name == "" {
		configInvariantf("proto: Register with empty backend name")
	}
	if _, dup := registry[b.Name]; dup {
		configInvariantf("proto: duplicate backend %s", b.Name)
	}
	registry[b.Name] = b
}

// Lookup resolves a protocol name to its backend. The empty name resolves
// to the default ("lrc"). Unknown names return an error listing the
// registered protocols.
func Lookup(name string) (*Backend, error) {
	if name == "" {
		name = "lrc"
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ValidateConfig checks that cfg names a registered backend and that the
// backend accepts its knob combination.
func ValidateConfig(cfg Config) error {
	b, err := Lookup(cfg.Protocol)
	if err != nil {
		return err
	}
	if err := validateCommon(cfg); err != nil {
		return err
	}
	if b.Validate != nil {
		return b.Validate(cfg)
	}
	return nil
}

// validateCommon checks the backend-independent machine knobs (barrier
// topology, gossip parameters).
func validateCommon(cfg Config) error {
	switch cfg.Barrier {
	case "", "central", "tree":
	default:
		return fmt.Errorf("unknown barrier %q (have: central, tree)", cfg.Barrier)
	}
	if cfg.BarrierFanout != 0 && cfg.BarrierFanout < 2 {
		return fmt.Errorf("barrier fanout %d: a combining tree needs arity >= 2", cfg.BarrierFanout)
	}
	if cfg.GossipFanout < 0 {
		return fmt.Errorf("gossip fanout %d must be >= 0 (0 selects the default)", cfg.GossipFanout)
	}
	if cfg.GossipInterval < 0 {
		return fmt.Errorf("gossip interval %d must be >= 0 (0 selects the default)", cfg.GossipInterval)
	}
	return nil
}

// rejectHomePolicy is the validation shared by every backend without
// pluggable homes.
func rejectHomePolicy(proto string, cfg Config) error {
	if cfg.HomePolicy != "" {
		return fmt.Errorf("protocol %s has no home assignment; HomePolicy must be empty, got %q", proto, cfg.HomePolicy)
	}
	return nil
}

func init() {
	Register(&Backend{
		Name:     "lrc",
		Doc:      "TreadMarks-style lazy release consistency: distributed diff fetch at fault time, diff GC at barriers",
		Validate: func(cfg Config) error { return rejectHomePolicy("lrc", cfg) },
		Build:    buildDiffBased(false),
	})
	Register(&Backend{
		Name:     "erc",
		Doc:      "eager release consistency (Munin-style): write notices broadcast at every release; data still moves as lazy diffs",
		Validate: func(cfg Config) error { return rejectHomePolicy("erc", cfg) },
		Build:    buildDiffBased(true),
	})
	Register(&Backend{
		Name:     "hlrc",
		Doc:      "home-based LRC: writers flush diffs to each page's home at release; faults fetch the whole page from home; no diff GC",
		Validate: validateHLRC,
		Build:    buildHLRC,
	})
	Register(&Backend{
		Name:     "adp",
		Doc:      "adaptive coherence: per-page switching between diff-based (lrc) and home-based (hlrc) regimes at barrier episodes",
		Validate: validateADP,
		Build:    buildADP,
	})
}

// buildDiffBased builds the shared LRC/ERC subsystem set; eager selects the
// eager-release-consistency notice broadcast at interval close.
func buildDiffBased(eager bool) func(n *Node, cfg Config) Subsystems {
	return func(n *Node, cfg Config) Subsystems {
		coh := &lrcCoherence{n: n, eager: eager, pfReliable: cfg.PfReliable}
		if cfg.Gossip {
			n.gossip = newGossiper(n, cfg) // nil on one-node clusters
		}
		return Subsystems{
			Coherence: coh,
			Prefetch:  &lrcPrefetcher{n: n, throttle: cfg.ThrottlePf, reliable: cfg.PfReliable},
			Sync:      newSyncManager(n, cfg),
			GC:        &lrcGC{n: n, threshold: cfg.GCThreshold, sharedPfHeap: cfg.PfHeapSharedGC},
		}
	}
}

func validateHLRC(cfg Config) error {
	if cfg.GCThreshold != 0 {
		return fmt.Errorf("protocol hlrc has no diff GC (homes apply diffs eagerly); GCThreshold must be 0, got %d", cfg.GCThreshold)
	}
	if cfg.PfHeapSharedGC {
		return fmt.Errorf("protocol hlrc has no diff GC; PfHeapSharedGC does not apply")
	}
	if cfg.Gossip {
		return fmt.Errorf("protocol hlrc distributes notices through page homes; Gossip does not apply")
	}
	if _, err := newHomePolicy(cfg.HomePolicy); err != nil {
		return err
	}
	return nil
}

// newHLRC builds the home-based coherence pair; a nil mig keeps homes
// static. The adaptive backend embeds a static one (it counts at its own
// layer).
func newHLRC(n *Node, cfg Config, mig *migratePolicy) (*hlrcCoherence, *hlrcPrefetcher) {
	pf := &hlrcPrefetcher{
		n: n, throttle: cfg.ThrottlePf, reliable: cfg.PfReliable,
		cache: make(map[pagemem.PageID]*pfPage),
	}
	coh := &hlrcCoherence{
		n: n, pf: pf, pfReliable: cfg.PfReliable,
		homes:   newHomeTable(n.N),
		mig:     mig,
		applied: make(map[pagemem.PageID]lrc.VC),
		parked:  make(map[pagemem.PageID][]*msgPageReq),
		asked:   make(map[pagemem.PageID]map[lrc.IntervalID]bool),
	}
	if mig != nil {
		coh.acc = newAccSet()
		coh.xin = make(map[pagemem.PageID]*xferIn)
		coh.away = make(map[pagemem.PageID]bool)
	}
	pf.coh = coh
	return coh, pf
}

func buildHLRC(n *Node, cfg Config) Subsystems {
	mig, err := newHomePolicy(cfg.HomePolicy)
	if err != nil {
		configInvariantf("proto: %v", err)
	}
	coh, pf := newHLRC(n, cfg, mig)
	return Subsystems{
		Coherence: coh,
		Prefetch:  pf,
		Sync:      newSyncManager(n, cfg),
		GC:        noGC{n: n},
	}
}
