package main

import (
	"fmt"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/harness"
)

// cell is one simulation of a workload: an application built at a scale
// and run under one machine configuration.
type cell struct {
	name  string
	app   apps.Spec
	scale apps.Scale
	cfg   dsm.Config
}

// workload is a named, fixed list of cells. App inputs are fixed by the
// applications' own seeds; the benchmark seed only feeds Config.GossipSeed.
type workload struct {
	name  string
	cells func(seed int64) []cell
}

var workloads = []workload{
	{"paper-grid", paperGrid},
	{"checked-home", checkedHome},
	{"scaled-1024", scaled1024},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// paperGrid is the job users run to regenerate the paper: every app under
// the paper's eight variants on its eight-node lrc platform.
func paperGrid(seed int64) []cell {
	sess := harness.NewSession(harness.Options{Procs: 8, Scale: apps.Small})
	var cells []cell
	for _, app := range apps.All {
		for _, v := range harness.AllVariants {
			cfg := sess.Config(app.Name, v)
			cfg.Protocol = "lrc"
			cfg.GossipSeed = seed
			cells = append(cells, cell{app.Name + "/" + string(v), app, apps.Small, cfg})
		}
	}
	return cells
}

// checkedHome runs the home-based and adaptive backends with the race
// detector's per-access hook on: the same layers as paper-grid, used
// differently.
func checkedHome(seed int64) []cell {
	sess := harness.NewSession(harness.Options{Procs: 8, Scale: apps.Small})
	var cells []cell
	for _, app := range apps.All {
		for _, protocol := range []string{"hlrc", "adp"} {
			cfg := sess.Config(app.Name, harness.VarO)
			cfg.Protocol = protocol
			cfg.RaceCheck = true
			cfg.RaceGranularity = "word"
			cfg.GossipSeed = seed
			cells = append(cells, cell{app.Name + "/O/" + protocol, app, apps.Small, cfg})
		}
	}
	return cells
}

// scaled1024 runs SOR and FFT on the nodescale experiment's scaled machine
// (fat tree, combining-tree barrier) at 1024 processors, where every
// per-node structure is O(N).
func scaled1024(seed int64) []cell {
	sess := harness.NewSession(harness.Options{Procs: 1024, Scale: apps.Unit})
	var cells []cell
	for _, app := range apps.All {
		if app.Name != "SOR" && app.Name != "FFT" {
			continue
		}
		for _, protocol := range []string{"lrc", "erc"} {
			cfg := sess.Config(app.Name, harness.VarO)
			cfg.Protocol = protocol
			cfg.Net.Topology = "fattree"
			cfg.Barrier = "tree"
			if protocol == "erc" {
				cfg.Gossip = true
			}
			cfg.GossipSeed = seed
			cells = append(cells, cell{app.Name + "/O/" + protocol + "/1024", app, apps.Unit, cfg})
		}
	}
	return cells
}
