// Package prof is the shared CPU- and memory-profiling setup of the dynlb
// commands.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins writing a CPU profile to path. The returned stop function
// stops the profile and closes the file, reporting the close error that a
// bare deferred pprof.StopCPUProfile would swallow (ENOSPC, NFS flush).
func Start(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// WriteHeap writes an allocs-space heap profile to path, preceded by a GC
// so the live-heap numbers are current. Call it at the end of a run; the
// profile's alloc_space/alloc_objects samples cover the whole process
// lifetime, which is what a hot-path allocation hunt needs (the simulator's
// steady state should be allocation-free — see the sim alloc guard test).
func WriteHeap(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	runtime.GC() // materialize up-to-date heap statistics
	return pprof.Lookup("allocs").WriteTo(f, 0)
}
