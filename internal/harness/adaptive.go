package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
)

// Adaptive-coherence comparison: the application grid under the diff-based
// baseline (lrc), the home-based backend under each home policy (static,
// firsttouch, migrate), and the adaptive backend (adp), which keeps homes
// static but switches each page between the diff-based and home-based
// regimes at barrier episodes. Every run verifies its output against the
// sequential golden. The summary reports each backend's elapsed time
// relative to lrc and, for adp, relative to the best static choice per cell
// — the number that tells whether per-page adaptation actually recovers the
// better of the two regimes without knowing the application in advance.

// AdaptiveBackend is one column of the adaptive comparison: a display
// label, a protocol name, and (for hlrc) a home policy.
type AdaptiveBackend struct {
	Label    string
	Protocol string
	Policy   string
}

// AdaptiveBackends lists the compared configurations, baseline first. The
// "static" trio are the fixed choices adp is measured against; firsttouch
// and migrate move homes but keep every page home-based.
var AdaptiveBackends = []AdaptiveBackend{
	{Label: "lrc", Protocol: "lrc"},
	{Label: "hlrc", Protocol: "hlrc", Policy: "static"},
	{Label: "hlrc/ft", Protocol: "hlrc", Policy: "firsttouch"},
	{Label: "hlrc/mig", Protocol: "hlrc", Policy: "migrate"},
	{Label: "adp", Protocol: "adp"},
}

// RunAdaptive runs the adaptive-coherence grid and renders per-backend
// tables plus the relative-elapsed summary.
func RunAdaptive(s *Session, w io.Writer) error {
	apps := s.AppNames()
	var cells []cell
	for _, b := range AdaptiveBackends {
		for _, app := range apps {
			for _, v := range ProtocolVariants {
				cells = append(cells, cell{app, s.protocolConfig(app, v, b.Protocol, b.Policy), true,
					fmt.Sprintf("%s/%s under %s", app, v, b.Label)})
			}
		}
	}
	reps, err := s.runCells(cells)
	if err != nil {
		return err
	}
	// at returns the report of backend bi, app ai, variant vi.
	at := func(bi, ai, vi int) *dsm.Report {
		return reps[(bi*len(apps)+ai)*len(ProtocolVariants)+vi]
	}

	fmt.Fprintln(w, "Adaptive coherence: lrc vs hlrc home policies vs per-page mode switching (adp), outputs verified against goldens")
	for bi, b := range AdaptiveBackends {
		fmt.Fprintf(w, "\nBackend %s\n", b.Label)
		fmt.Fprintf(w, "%-10s %-4s %10s %8s %7s %8s %8s %8s %7s %7s %7s\n",
			"App", "Cfg", "Elapsed", "Msgs", "VolKB", "DiffAppl", "HomeFlsh", "HomeFtch", "Migr", "ToHome", "ToDiff")
		for ai, app := range apps {
			for vi, v := range ProtocolVariants {
				rep := at(bi, ai, vi)
				n := rep.Sum()
				fmt.Fprintf(w, "%-10s %-4s %8sus %8d %7s %8d %8d %8d %7d %7d %7d\n",
					app, v, usec(rep.Elapsed), rep.MsgsTotal, kb(rep.BytesTotal),
					n.DiffsApplied, n.HomeFlushes, n.HomeFetches,
					n.HomeMigrations, n.ModeToHome, n.ModeToDiff)
			}
		}
	}

	fmt.Fprintln(w, "\nElapsed time relative to lrc (ratio > 1 means slower), and adp against the best fixed backend")
	fmt.Fprintf(w, "%-10s %-4s", "App", "Cfg")
	for _, b := range AdaptiveBackends[1:] {
		fmt.Fprintf(w, " %8s", b.Label)
	}
	fmt.Fprintf(w, " %8s\n", "adp/best")
	for ai, app := range apps {
		for vi, v := range ProtocolVariants {
			base := at(0, ai, vi)
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			best, adp := base.Elapsed, base
			for bi := 1; bi < len(AdaptiveBackends); bi++ {
				rep := at(bi, ai, vi)
				fmt.Fprintf(w, " %8.3f", float64(rep.Elapsed)/float64(base.Elapsed))
				if AdaptiveBackends[bi].Label == "adp" {
					adp = rep
				} else if rep.Elapsed < best {
					best = rep.Elapsed
				}
			}
			fmt.Fprintf(w, " %8.3f\n", float64(adp.Elapsed)/float64(best))
		}
	}
	return nil
}

func init() {
	Experiments = append(Experiments, Experiment{
		ID:    "adaptive",
		Title: "Adaptive coherence: home policies and per-page diff/home switching",
		Run:   RunAdaptive,
	})
}
