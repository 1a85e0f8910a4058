package obs

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the host-side profiles a command-line run asks for:
// a CPU profile written to cpuPath and a heap profile written to memPath
// (either empty to skip it). It returns a stop function that finishes the
// CPU profile and writes the heap profile (after a GC, so it reflects live
// memory at exit). The binaries call stop on every exit path, including
// fatal errors; calls after the first do nothing.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	stopped := false
	return func() error {
		if stopped {
			return nil
		}
		stopped = true
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpuprofile: %w", err))
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				errs = append(errs, fmt.Errorf("memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
