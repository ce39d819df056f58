package harness

import (
	"fmt"
	"io"

	"godsm/internal/sim"
)

// RunScaling regenerates a processor-count scaling table (an extension:
// the paper fixes 8 processors). For each application it reports elapsed
// time and self-relative speedup at 1, 2, 4 and 8 processors under the
// original and prefetching configurations — showing how communication
// grows with the machine and how much of it prefetching recovers. The
// whole app × config × procs grid simulates concurrently on the session's
// worker pool; rendering prints in table order.
func RunScaling(s *Session, w io.Writer) error {
	procs := []int{1, 2, 4, 8}
	variants := []Variant{VarO, VarP}
	var cells []cell
	for _, app := range s.AppNames() {
		for _, v := range variants {
			for _, p := range procs {
				cfg := s.Config(app, v)
				cfg.Procs = p
				cells = append(cells, cell{app, cfg, s.Opt.Verify, fmt.Sprintf("%s/%s on %d procs", app, v, p)})
			}
		}
	}
	reps, err := s.runCells(cells)
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Scaling: elapsed time and speedup vs processor count")
	fmt.Fprintf(w, "%-10s %-4s %12s %12s %12s %12s\n",
		"App", "Cfg", "1p", "2p", "4p", "8p")
	for _, app := range s.AppNames() {
		for _, v := range variants {
			row := reps[:len(procs)]
			reps = reps[len(procs):]
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			for _, rep := range row {
				fmt.Fprintf(w, " %10dus", rep.Elapsed/sim.Microsecond)
			}
			fmt.Fprintln(w)
			fmt.Fprintf(w, "%-10s %-4s", "", "↳spd")
			for _, rep := range row {
				fmt.Fprintf(w, " %11.2fx", float64(row[0].Elapsed)/float64(rep.Elapsed))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "(speedups are relative to the same configuration on 1 processor)")
	return nil
}

func init() {
	Experiments = append(Experiments, Experiment{
		ID:    "scaling",
		Title: "Processor-count scaling (extension)",
		Run:   RunScaling,
	})
}
