package main

import (
	"strings"
	"testing"

	"godsm/dsm"
)

// TestValidateMachine exercises the up-front flag validation: registered
// protocol names pass (with any knobs they support), unknown names fail
// with the registered list, knob combinations a backend cannot honor (a
// home policy on any backend but hlrc, among others) are
// rejected, and machine shapes the simulator cannot build — a fat tree
// over a non-power-of-two -procs, a degenerate combining-tree arity — are
// reported as plain usage errors instead of panics in core.NewSystem.
func TestValidateMachine(t *testing.T) {
	cases := []struct {
		name        string
		procs       int // 0 = leave DefaultConfig's 8
		protocol    string
		homePolicy  string
		gcThreshold int64
		topology    string
		radix       int
		barrier     string
		fanout      int
		gossip      bool
		raceCheck   bool
		raceGran    string
		wantErr     []string // substrings of the error; empty = valid
	}{
		{name: "default is lrc"},
		{name: "explicit lrc", protocol: "lrc"},
		{name: "erc", protocol: "erc"},
		{name: "hlrc", protocol: "hlrc"},
		{name: "lrc with gc threshold", protocol: "lrc", gcThreshold: 1 << 20},
		{name: "default with gc threshold", gcThreshold: 1 << 20},
		{name: "unknown protocol lists registered ones", protocol: "treadmarks",
			wantErr: []string{"unknown protocol", "treadmarks", "erc", "hlrc", "lrc"}},
		{name: "hlrc rejects gc threshold", protocol: "hlrc", gcThreshold: 1 << 20,
			wantErr: []string{"hlrc", "GCThreshold"}},
		{name: "hlrc rejects shared pf-heap gc", protocol: "hlrc",
			wantErr: []string{"hlrc", "PfHeapSharedGC"}},
		{name: "hlrc with static homes", protocol: "hlrc", homePolicy: "static"},
		{name: "hlrc with migrating homes", protocol: "hlrc", homePolicy: "migrate"},
		{name: "lrc rejects a home policy", protocol: "lrc", homePolicy: "migrate",
			wantErr: []string{"lrc", "HomePolicy"}},
		{name: "erc rejects a home policy", protocol: "erc", homePolicy: "migrate",
			wantErr: []string{"erc", "HomePolicy"}},
		{name: "adp rejects a home policy", protocol: "adp", homePolicy: "migrate",
			wantErr: []string{"adp", "HomePolicy"}},
		{name: "unknown home policy lists the valid ones", protocol: "hlrc", homePolicy: "firsttouch",
			wantErr: []string{"firsttouch", "static, migrate"}},

		{name: "zero procs", procs: -1,
			wantErr: []string{"Procs", "positive"}},
		{name: "explicit single switch", topology: "single"},
		{name: "fat tree at a power of two", procs: 64, topology: "fattree"},
		{name: "fat tree with explicit radix", procs: 16, topology: "fattree", radix: 8},
		{name: "unknown topology", topology: "hypercube",
			wantErr: []string{"unknown topology", "hypercube"}},
		{name: "fat tree rejects non-power-of-two procs", procs: 12, topology: "fattree",
			wantErr: []string{"fattree", "12", "power-of-two"}},
		{name: "fat tree rejects one node", procs: 1, topology: "fattree",
			wantErr: []string{"fattree", "power-of-two"}},
		{name: "fat tree rejects non-power-of-two radix", procs: 16, topology: "fattree", radix: 6,
			wantErr: []string{"fattree", "radix 6"}},
		{name: "combining tree", barrier: "tree"},
		{name: "explicit central barrier", barrier: "central"},
		{name: "unknown barrier", barrier: "butterfly",
			wantErr: []string{"unknown barrier", "butterfly"}},
		{name: "combining tree rejects arity below 2", barrier: "tree", fanout: 1,
			wantErr: []string{"fanout 1", "arity >= 2"}},
		{name: "gossip on erc", protocol: "erc", gossip: true},
		{name: "gossip on lrc", protocol: "lrc", gossip: true},
		{name: "hlrc rejects gossip", protocol: "hlrc", gossip: true,
			wantErr: []string{"hlrc", "Gossip"}},
		{name: "the full scaled machine", procs: 256, protocol: "erc",
			topology: "fattree", barrier: "tree", gossip: true},
		{name: "race check", raceCheck: true},
		{name: "race check at word granularity", raceCheck: true, raceGran: "word"},
		{name: "race check at page granularity", raceCheck: true, raceGran: "page"},
		{name: "race granularity requires race check", raceGran: "page",
			wantErr: []string{"RaceGranularity", "RaceCheck"}},
		{name: "unknown race granularity", raceCheck: true, raceGran: "byte",
			wantErr: []string{"race granularity", "byte", "word or page"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dsm.DefaultConfig()
			if tc.procs != 0 {
				cfg.Procs = tc.procs
			}
			cfg.Protocol = tc.protocol
			cfg.HomePolicy = tc.homePolicy
			cfg.GCThreshold = tc.gcThreshold
			cfg.Net.Topology = tc.topology
			cfg.Net.FatTreeRadix = tc.radix
			cfg.Barrier = tc.barrier
			cfg.BarrierFanout = tc.fanout
			cfg.Gossip = tc.gossip
			cfg.RaceCheck = tc.raceCheck
			cfg.RaceGranularity = tc.raceGran
			if tc.name == "hlrc rejects shared pf-heap gc" {
				cfg.PfHeapSharedGC = true
			}
			err := dsm.ValidateMachineConfig(cfg)
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}
