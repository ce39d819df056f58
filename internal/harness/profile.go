package harness

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts host profiling for a command: a CPU profile written
// to cpuPath and a heap profile written to memPath, either of which may be
// empty to skip it. Both files are created up front, so an unwritable path
// fails before anything simulates. The returned stop function ends the CPU
// profile and writes the heap profile; call it once, after the work to
// profile. Profiles observe the host process only: no simulated number
// depends on them.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile, memFile *os.File
	if memPath != "" {
		if memFile, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("memory profile: %w", err)
		}
	}
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(cpuFile); err != nil {
				cpuFile.Close()
			}
		}
		if err != nil {
			if memFile != nil {
				memFile.Close()
			}
			return nil, fmt.Errorf("CPU profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("CPU profile: %w", err))
			}
		}
		if memFile != nil {
			runtime.GC() // bring the heap profile's statistics up to date
			if err := pprof.WriteHeapProfile(memFile); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
			if err := memFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("memory profile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}
