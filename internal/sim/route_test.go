package sim

import (
	"math/rand"
	"testing"
)

// visitMode is how stationTrace serves a process at a run of stations.
type visitMode int

const (
	bracketVisits visitMode = iota // Acquire, Wait, Release at each station
	useVisits                      // one Server.Use per station
	routeVisits                    // one Proc.UseRoute per run
)

// traceStep is one observation of stationTrace: a process ending a run of
// station visits (id > 0), or a kernel-context sample of Blocked() (id 0,
// the count in blocked).
type traceStep struct {
	id      int64
	t       Time
	blocked int
}

// stationResult is everything stationTrace observes.
type stationResult struct {
	steps    []traceStep
	stations [][4]float64 // Served, MeanWait, Utilization, MeanQueueLen per station
	stats    KernelStats
	// tieSlowdowns counts SetSlowdown events at an instant at which some
	// hold ended (bracket mode only).
	tieSlowdowns int
}

// stationTrace runs a seeded workload in which 24 processes each visit
// three runs of three stations (capacities 1, 2 and 1), with service
// times on a 100 µs grid so that ends, arrivals, slowdown changes and
// Blocked() samples tie at one instant. zeros makes some visits
// zero-length; slowdowns interleaves SetSlowdown events (factors 1, 1.5, 2
// and 3). Every mode draws the same random numbers, so two modes that
// dispatch the same event sequence observe the same trace.
func stationTrace(seed int64, mode visitMode, zeros, slowdowns bool) stationResult {
	k := NewKernel()
	srv := []*Server{NewServer(k, "a", 1), NewServer(k, "b", 2), NewServer(k, "c", 1)}
	factor := map[*Server]float64{}
	ends := map[Time]bool{}
	var slowAt []Time
	rng := rand.New(rand.NewSource(seed))
	const grid = 100 * Microsecond
	var res stationResult

	for i := 0; i < 24; i++ {
		start := Duration(rng.Intn(20)) * grid
		var runs [3][3]Stage
		var waits [3]Duration
		for r := range runs {
			for j := range runs[r] {
				d := Duration(rng.Intn(4)+1) * grid
				if zeros && rng.Intn(8) == 0 {
					d = 0
				}
				runs[r][j] = Stage{srv[rng.Intn(len(srv))], d}
			}
			waits[r] = Duration(rng.Intn(3)) * grid
		}
		k.SpawnAt(start, "v", func(p *Proc) {
			for r := range runs {
				switch mode {
				case routeVisits:
					p.UseRoute(runs[r][:]...)
				case useVisits:
					for _, st := range runs[r] {
						st.S.Use(p, st.D)
					}
				case bracketVisits:
					for _, st := range runs[r] {
						d := st.D
						if f := factor[st.S]; f > 1 {
							d = Duration(float64(d) * f)
						}
						st.S.Acquire(p)
						p.Wait(d)
						ends[p.Now()] = true
						st.S.Release()
					}
				}
				res.steps = append(res.steps, traceStep{p.ID(), p.Now(), 0})
				p.Wait(waits[r])
			}
		})
	}
	if slowdowns {
		for i := 0; i < 12; i++ {
			at := Duration(rng.Intn(40)) * grid
			s := srv[rng.Intn(len(srv))]
			f := []float64{1, 1.5, 2, 3}[rng.Intn(4)]
			k.At(at, func() {
				s.SetSlowdown(f)
				factor[s] = f
				slowAt = append(slowAt, k.Now())
			})
		}
	}
	for i := 0; i < 30; i++ {
		k.At(Duration(rng.Intn(40))*grid, func() {
			res.steps = append(res.steps, traceStep{0, k.Now(), k.Blocked()})
		})
	}
	// Run in horizon slices so that draining to the horizon, and the root
	// loop's dispatch of a suspended process's events, are exercised too.
	for h := 500 * Microsecond; k.Pending() > 0; h += 500 * Microsecond {
		k.Run(h)
	}
	for _, s := range srv {
		res.stations = append(res.stations, [4]float64{
			float64(s.Served()), float64(s.MeanWait()), s.Utilization(), s.MeanQueueLen()})
	}
	for _, t := range slowAt {
		if ends[t] {
			res.tieSlowdowns++
		}
	}
	k.Shutdown()
	res.stats = k.Stats()
	return res
}

// requireSameStations fails unless got and want observed the same trace,
// the same station statistics and the same event and spawn counts.
func requireSameStations(t *testing.T, name string, got, want stationResult) {
	t.Helper()
	if len(got.steps) != len(want.steps) {
		t.Fatalf("%s: %d steps, want %d", name, len(got.steps), len(want.steps))
	}
	for i := range got.steps {
		if got.steps[i] != want.steps[i] {
			t.Fatalf("%s: step %d is %+v, want %+v", name, i, got.steps[i], want.steps[i])
		}
	}
	for i := range got.stations {
		if got.stations[i] != want.stations[i] {
			t.Errorf("%s: station %d (Served, MeanWait, Utilization, MeanQueueLen) %v, want %v",
				name, i, got.stations[i], want.stations[i])
		}
	}
	g, w := got.stats, want.stats
	if g.Dispatched != w.Dispatched || g.Spawns != w.Spawns || g.SpawnReuses != w.SpawnReuses {
		t.Errorf("%s: dispatched/spawns/reuses %d/%d/%d, want %d/%d/%d",
			name, g.Dispatched, g.Spawns, g.SpawnReuses, w.Dispatched, w.Spawns, w.SpawnReuses)
	}
}

// TestUseMatchesAcquireWaitRelease: Server.Use, whose queued request is
// granted and starts its hold in kernel context, dispatches the event
// sequence of Acquire, Wait, Release — with zero-length visits and
// slowdown changes — and switches into processes less often.
func TestUseMatchesAcquireWaitRelease(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		want := stationTrace(seed, bracketVisits, true, true)
		got := stationTrace(seed, useVisits, true, true)
		requireSameStations(t, "Use", got, want)
		if got.stats.Handoffs >= want.stats.Handoffs {
			t.Errorf("seed %d: Use switched %d times, Acquire/Wait/Release %d",
				seed, got.stats.Handoffs, want.stats.Handoffs)
		}
		for i, st := range want.stations {
			if st[1] == 0 {
				t.Errorf("seed %d: station %d never queued a request", seed, i)
			}
		}
	}
}

// TestRouteMatchesSequentialUses: a three-stage UseRoute dispatches the
// event sequence of three Use calls (and of Acquire, Wait, Release at each
// station), with contention at every station, zero-length stages and
// slowdown changes that land between stages — some at the instant a stage
// ends — and resumes its process less often.
func TestRouteMatchesSequentialUses(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 5; seed++ {
		bracket := stationTrace(seed, bracketVisits, true, true)
		ties += bracket.tieSlowdowns
		uses := stationTrace(seed, useVisits, true, true)
		got := stationTrace(seed, routeVisits, true, true)
		requireSameStations(t, "route vs Use", got, uses)
		requireSameStations(t, "route vs Acquire/Wait/Release", got, bracket)
		if got.stats.Handoffs >= uses.stats.Handoffs {
			t.Errorf("seed %d: route switched %d times, consecutive Use calls %d",
				seed, got.stats.Handoffs, uses.stats.Handoffs)
		}
		// Without zero-length visits every route runs in kernel context.
		uses = stationTrace(seed, useVisits, false, true)
		got = stationTrace(seed, routeVisits, false, true)
		requireSameStations(t, "route vs Use, no zero stage", got, uses)
	}
	if ties == 0 {
		t.Error("no slowdown change tied with the end of a hold")
	}
}
