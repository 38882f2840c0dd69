package engine

import (
	"time"

	"dynlb/internal/config"
	"dynlb/internal/retry"
	"dynlb/internal/sim"
)

// Fault injection. The plan's faults are scheduled as plain kernel events
// that flip per-PE state and notify the control node (an ideal, zero-latency
// failure detector), so a faulted run is an ordinary deterministic
// simulation: bit-identical per seed at any worker parallelism.
//
// Failure semantics follow a "dying participants still report" protocol:
// work in flight on a crashed PE stops doing real work (no CPU, no disk, no
// data) but the failure detector still synthesizes the end-of-phase control
// messages its coordinator is counting, so no protocol loop ever hangs and
// every deferred resource release runs. The coordinator then notices the
// failure at its next phase checkpoint, aborts the attempt (releasing locks
// and the placement reservation) and retries with capped exponential
// backoff through the normal decision path. Crashed fragments are served by
// the next live PE (chained-declustering buddy), so queries that avoid the
// dead PE complete during the outage.
//
// s.faults is nil when Config.Faults is empty; every check below sits
// behind that nil guard, so fault-free runs take exactly the original code
// path (golden-verified).

// faultState tracks injected failures at run time.
type faultState struct {
	s       *System
	down    []bool
	crashAt []sim.Time // last crash instant per PE (-1 = never crashed)

	cpuFactor  []float64 // current straggler factor per PE (1 = normal)
	diskFactor []float64 // current disk slowdown per PE (1 = normal)

	aborts    int64 // fault-aborted attempts inside the measurement window
	retries   int64 // retries issued inside the measurement window
	winAborts int   // aborts in the current metrics window (reset per window)
}

func newFaultState(s *System) *faultState {
	n := s.cfg.NPE
	fs := &faultState{
		s:          s,
		down:       make([]bool, n),
		crashAt:    make([]sim.Time, n),
		cpuFactor:  make([]float64, n),
		diskFactor: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		fs.crashAt[i] = -1
		fs.cpuFactor[i] = 1
		fs.diskFactor[i] = 1
	}
	return fs
}

// schedule registers the plan's failure and recovery events. Fault times
// are measured from the measurement start (like LoadProfile time), so a
// crash at at=20s lands 20 s into the metrics windows.
func (fs *faultState) schedule() {
	w := fs.s.cfg.Warmup
	for _, f := range fs.s.cfg.Faults.Faults {
		f := f
		at := w + f.At
		switch f.Kind {
		case config.FaultCrash:
			fs.s.k.At(at, func() { fs.crash(f.PE) })
			if f.Down > 0 {
				fs.s.k.At(at+f.Down, func() { fs.recoverPE(f.PE) })
			}
		case config.FaultSlowDisk:
			fs.s.k.At(at, func() { fs.setDiskFactor(f.PE, f.Factor) })
			if f.For > 0 {
				fs.s.k.At(at+f.For, func() { fs.setDiskFactor(f.PE, 1) })
			}
		case config.FaultStraggler:
			fs.s.k.At(at, func() { fs.setCPUFactor(f.PE, f.Factor) })
			if f.For > 0 {
				fs.s.k.At(at+f.For, func() { fs.setCPUFactor(f.PE, 1) })
			}
		}
	}
}

func (fs *faultState) crash(pe int) {
	fs.down[pe] = true
	fs.crashAt[pe] = fs.s.k.Now()
	fs.updateHealth(pe)
}

func (fs *faultState) recoverPE(pe int) {
	fs.down[pe] = false
	fs.updateHealth(pe)
}

func (fs *faultState) setDiskFactor(pe int, f float64) {
	fs.diskFactor[pe] = f
	fs.s.pes[pe].disks.SetSlowdown(f)
	fs.updateHealth(pe)
}

func (fs *faultState) setCPUFactor(pe int, f float64) {
	fs.cpuFactor[pe] = f
	fs.s.pes[pe].cpu.SetSlowdown(f)
	fs.updateHealth(pe)
}

// updateHealth pushes the PE's current health to the control node: 0 down,
// 1/worst-degradation-factor degraded, 1 healthy. Overlapping degradations
// of the same kind on one PE are not tracked separately — the most recent
// event wins.
func (fs *faultState) updateHealth(pe int) {
	h := 1.0
	worst := fs.cpuFactor[pe]
	if fs.diskFactor[pe] > worst {
		worst = fs.diskFactor[pe]
	}
	if worst > 1 {
		h = 1 / worst
	}
	if fs.down[pe] {
		h = 0
	}
	fs.s.ctrl.SetHealth(pe, h)
}

// hostUp reports whether pe is currently up.
func (fs *faultState) hostUp(pe int) bool { return !fs.down[pe] }

// failedSince reports whether pe is down now or has crashed at or after
// start — work begun at start on pe is lost either way.
func (fs *faultState) failedSince(pe int, start sim.Time) bool {
	return fs.down[pe] || fs.crashAt[pe] >= start
}

// anyFailedSince reports whether any PE in lists has failed since start.
func (fs *faultState) anyFailedSince(start sim.Time, lists ...[]int) bool {
	for _, list := range lists {
		for _, pe := range list {
			if fs.failedSince(pe, start) {
				return true
			}
		}
	}
	return false
}

// liveHost returns pe if it is up, else the next live PE in id order (the
// chained-declustering buddy holding the fragment's replica). PE 0 hosts
// the control node and can never crash, so the search always terminates.
func (fs *faultState) liveHost(pe int) int {
	for fs.down[pe] {
		pe = (pe + 1) % len(fs.down)
	}
	return pe
}

// liveHosts maps every PE of ids to its live host, in place.
func (fs *faultState) liveHosts(ids []int) []int {
	for i, pe := range ids {
		ids[i] = fs.liveHost(pe)
	}
	return ids
}

// noteAbort counts one fault-aborted attempt (measurement-gated).
func (fs *faultState) noteAbort() {
	if fs.s.measuring {
		fs.aborts++
		fs.winAborts++
	}
}

// noteRetry counts one retry actually issued after backoff.
func (fs *faultState) noteRetry() {
	if fs.s.measuring {
		fs.retries++
	}
}

// faultRetry is the engine's retry policy: 100 ms doubling up to 3.2 s,
// the schedule the failover goldens are pinned to (retry.TestDelayMatchesEngineTable).
var faultRetry = retry.Backoff{Base: 100 * time.Millisecond, Cap: 3200 * time.Millisecond}

// retryBackoff returns the capped exponential backoff before retry n
// (0-based). Deterministic — no jitter — so the retry stream replays
// bit-identically and the fault-free rng sequence is never touched. Both
// retry delays and sim durations are integer nanoseconds, so the
// conversion is exact.
func retryBackoff(attempt int) sim.Duration {
	return sim.Duration(faultRetry.Delay(attempt))
}

// retryQuery runs a query's attempts in the calling process until one
// completes. attempt runs the query with the given coordinator PE and
// reports false when a participant failure aborted it. Without a fault plan
// the single attempt is the whole query. Under fault injection an aborted
// attempt is counted, backs off (retryBackoff) and reruns on the
// coordinator's live host, re-entering the placement path.
func (s *System) retryQuery(p *sim.Proc, coordPE int, attempt func(coordPE int) bool) {
	if s.faults == nil {
		attempt(coordPE)
		return
	}
	for n := 0; ; n++ {
		if attempt(s.faults.liveHost(coordPE)) {
			return
		}
		s.faults.noteAbort()
		p.Wait(retryBackoff(n))
		s.faults.noteRetry()
	}
}

// availability is completed attempts over all attempts. Both zero (nothing
// ran) counts as fully available.
func availability(completed, aborted int64) float64 {
	if completed+aborted == 0 {
		return 1
	}
	return float64(completed) / float64(completed+aborted)
}
