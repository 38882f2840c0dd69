package engine

import (
	"fmt"

	"dynlb/internal/config"
	"dynlb/internal/sim"
)

// startReporters launches the periodic utilization reports every PE sends
// to the control node (Section 3: "a designated control node is
// periodically informed by the processors about their current utilization").
func (s *System) startReporters() {
	for _, pe := range s.pes {
		// Stagger first reports across the interval to avoid a thundering
		// herd at the control node.
		offset := sim.Duration(int64(pe.id)) * s.cfg.ReportInterval / sim.Duration(s.cfg.NPE)
		s.k.SpawnAt(offset, fmt.Sprintf("pe%d/reporter", pe.id), func(p *sim.Proc) {
			for {
				p.Wait(s.cfg.ReportInterval)
				u := pe.cpuSince()
				free := pe.buf.AvailNonQuery()
				peID := pe.id
				s.sendCtl(p, pe.id, s.ctrlPE, func() {
					// The control-node side only charges CPU and updates
					// the utilization table: run-to-completion, no process.
					s.k.SpawnFn(func() {
						s.recvCtlCPUFn(s.ctrlPE, func() {
							s.ctrl.Report(peID, u, free)
						})
					})
				})
			}
		})
	}
}

// startWorkload launches the arrival processes.
func (s *System) startWorkload() {
	c := &s.cfg
	// The per-arrival bodies below are hoisted out of the arrival loops and
	// shared across every spawn: the coordinator PE rides the process as its
	// SpawnArg scalar (the rng draw must stay in the arrival loop to keep
	// the global rng consumption order), and the arrival timestamp is
	// recovered as qp.Now() at body start — the start event fires at the
	// spawn instant, before the clock can advance. One closure per loop
	// instead of one per arrival.
	if c.JoinQPSPerPE > 0 {
		rate := c.JoinQPSPerPE * float64(c.NPE) // queries per second
		s.k.Spawn("join-arrivals", func(p *sim.Proc) {
			runQuery := func(qp *sim.Proc) {
				s.runJoinQuery(qp, int(qp.Arg()), qp.Now())
			}
			for {
				p.Wait(s.interarrival(rate))
				s.k.SpawnArg("join-coord", int64(s.rng.Intn(c.NPE)), runQuery)
			}
		})
	} else {
		// Single-user mode: a closed loop running one query at a time.
		s.k.Spawn("join-single-user", func(p *sim.Proc) {
			for {
				coord := s.rng.Intn(c.NPE)
				s.runJoinQuery(p, coord, s.k.Now())
			}
		})
	}
	for i := range c.ScanClasses {
		class := c.ScanClasses[i]
		rate := class.QPSPerPE * float64(c.NPE)
		s.k.Spawn(fmt.Sprintf("scanq-arrivals/%s", class.Name), func(p *sim.Proc) {
			runQuery := func(qp *sim.Proc) {
				s.runScanQuery(qp, int(qp.Arg()), class, qp.Now())
			}
			for {
				p.Wait(s.interarrival(rate))
				s.k.SpawnArg("scanq-coord", int64(s.rng.Intn(c.NPE)), runQuery)
			}
		})
	}
	for _, peID := range s.oltpNodes() {
		pe := s.pe(peID)
		s.k.Spawn(fmt.Sprintf("pe%d/oltp-arrivals", peID), func(p *sim.Proc) {
			runTxn := func(tp *sim.Proc) {
				s.runOLTP(tp, pe, tp.Now())
			}
			for {
				p.Wait(s.interarrival(s.cfg.OLTP.TPSPerNode))
				s.k.Spawn("oltp-txn", runTxn)
			}
		})
	}
}

// interarrival draws the next exponential interarrival delay of an open
// arrival stream with the given base rate, modulated by the load profile at
// the current instant (non-homogeneous Poisson by rate scaling: the
// multiplier stretches or compresses the draw, so every arrival consumes
// exactly one ExpFloat64 regardless of the profile and the rng consumption
// order stays identical across profile shapes). With a constant profile the
// expression reduces to the unmodulated draw, bit for bit. The single-user
// closed loop has no arrival process and is unaffected by profiles.
func (s *System) interarrival(rate float64) sim.Duration {
	draw := s.rng.ExpFloat64()
	if !s.profileConst {
		rate *= s.cfg.Profile.RateMult(s.k.Now() - s.cfg.Warmup)
	}
	return sim.FromSeconds(draw / rate)
}

// oltpNodes returns the PEs running the OLTP workload.
func (s *System) oltpNodes() []int {
	switch s.cfg.OLTP.Placement {
	case config.OLTPOnANode:
		return s.cfg.ANodes()
	case config.OLTPOnBNode:
		return s.cfg.BNodes()
	case config.OLTPOnAll:
		all := make([]int, s.cfg.NPE)
		for i := range all {
			all[i] = i
		}
		return all
	default:
		return nil
	}
}

// Run executes the configured workload: warm-up, then the measurement
// window, returning the aggregated results. A panic inside the simulation
// (a sim.ProcPanic when it arose in a process's context) propagates to the
// caller after the kernel is shut down.
func (s *System) Run() Results {
	// Tear the process model down once the metrics are read, or when the
	// simulation panics: kill the live processes and dismiss the worker
	// pool, so a sweep of many Systems — or a recovered panic — leaves no
	// parked coroutines behind.
	defer s.k.Shutdown()
	s.startReporters()
	s.detector.Start()
	s.startWorkload()
	if s.faults != nil {
		s.faults.schedule()
	}
	s.k.Run(s.cfg.Warmup)
	s.beginMeasurement()
	s.k.Run(s.cfg.Warmup + s.cfg.MeasureTime)
	s.detector.Stop()
	return s.results()
}

// Summary condenses a response-time sample. The JSON tags give sweep
// exports (dynlb.WriteRowsJSON) stable snake_case keys.
type Summary struct {
	N      int     `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P95MS  float64 `json:"p95_ms"`
	HW95MS float64 `json:"hw95_ms"` // 95% confidence half-width of the mean
}

// Results are the windowed metrics of one run, the quantities the paper's
// figures report.
type Results struct {
	Strategy string `json:"strategy"`
	NPE      int    `json:"npe"`

	JoinRT Summary `json:"join_rt"`
	OLTPRT Summary `json:"oltp_rt"`
	ScanRT Summary `json:"scan_rt"` // standalone scan query classes, if configured

	AvgJoinDegree float64 `json:"avg_join_degree"`  // achieved degree of join parallelism
	MeanMemWaitMS float64 `json:"mean_mem_wait_ms"` // memory-queue wait per join process

	CPUUtil  float64 `json:"cpu_util"` // mean over PEs in the window
	DiskUtil float64 `json:"disk_util"`
	MemUtil  float64 `json:"mem_util"`
	MaxCPU   float64 `json:"max_cpu"` // hottest PE

	TempIOPages int64   `json:"temp_io_pages"` // temporary-file pages in the window
	MemWaits    int64   `json:"mem_waits"`     // buffer memory-queue entries (whole run)
	MemSteals   int64   `json:"mem_steals"`    // frame steals from working spaces (whole run)
	StolenPages int64   `json:"stolen_pages"`
	JoinsDone   int64   `json:"joins_done"`
	OLTPDone    int64   `json:"oltp_done"`
	OLTPAborts  int64   `json:"oltp_aborts"` // deadlock-victim aborts (retried)
	JoinTPS     float64 `json:"join_tps"`
	OLTPTPS     float64 `json:"oltp_tps"`
	Deadlocks   int64   `json:"deadlocks"`
	PsuOpt      int     `json:"psu_opt"`
	PsuNoIO     int     `json:"psu_no_io"`

	// Windowed transient metrics, present only when Config.MetricsWindow
	// was set (nil/zero otherwise, so steady-state serialization is
	// unchanged). Windows slices the measurement interval into
	// WindowMS-wide pieces; PeakWindowRTMS is the largest per-window mean
	// response time, and RecoveryMS the time from the peak window's end
	// until the mean response time returns to within 10% of the pre-peak
	// baseline (0 without a pre-peak baseline, −1 when it never recovers
	// inside the horizon — see transientMetrics).
	Windows        []Window `json:"windows,omitempty"`
	WindowMS       float64  `json:"window_ms,omitempty"`
	PeakWindowRTMS float64  `json:"peak_window_rt_ms,omitempty"`
	RecoveryMS     float64  `json:"recovery_ms,omitempty"`

	// Fault-injection metrics, present only when Config.Faults was
	// non-empty (zero values otherwise, so fault-free serialization is
	// unchanged). Aborts counts attempts lost to injected failures (distinct
	// from deadlock-victim OLTPAborts), Retries the backoff re-submissions,
	// and Availability the fraction of attempts that completed:
	// completed / (completed + Aborts).
	FaultSpec    string  `json:"fault_spec,omitempty"`
	Aborts       int64   `json:"aborts,omitempty"`
	Retries      int64   `json:"retries,omitempty"`
	Availability float64 `json:"availability,omitempty"`
}

func (s *System) results() Results {
	window := s.k.Now() - s.measureFrom
	res := Results{
		Strategy:    s.strategy.Name(),
		NPE:         s.cfg.NPE,
		TempIOPages: s.tempIOPages - s.tempIO0,
		JoinsDone:   int64(s.joinRT.N()),
		OLTPDone:    int64(s.oltpRT.N()),
		Deadlocks:   s.detector.Victims(),
		OLTPAborts:  s.aborts,
		PsuOpt:      s.qinfo.PsuOpt,
		PsuNoIO:     s.qinfo.PsuNoIO,
	}
	res.JoinRT = Summary{
		N:      s.joinRT.N(),
		MeanMS: s.joinRT.Mean(),
		P95MS:  s.joinRT.Percentile(95),
		HW95MS: s.joinRT.HalfWidth95(),
	}
	res.OLTPRT = Summary{
		N:      s.oltpRT.N(),
		MeanMS: s.oltpRT.Mean(),
		P95MS:  s.oltpRT.Percentile(95),
		HW95MS: s.oltpRT.HalfWidth95(),
	}
	res.ScanRT = Summary{
		N:      s.scanRT.N(),
		MeanMS: s.scanRT.Mean(),
		P95MS:  s.scanRT.Percentile(95),
		HW95MS: s.scanRT.HalfWidth95(),
	}
	res.AvgJoinDegree = s.degrees.Mean()
	res.MeanMemWaitMS = s.memWaitMS.Mean()
	if window > 0 {
		secs := window.Seconds()
		res.JoinTPS = float64(res.JoinsDone) / secs
		res.OLTPTPS = float64(res.OLTPDone) / secs
		var cpu, dsk, mem, maxCPU float64
		for i, pe := range s.pes {
			u := pe.cpu.UtilizationSince(s.measureFrom, s.cpuBusy0[i])
			cpu += u
			if u > maxCPU {
				maxCPU = u
			}
			dsk += pe.disks.UtilizationSince(s.measureFrom, s.diskBusy0[i])
			mem += pe.buf.MeanUtilization(s.measureFrom, s.memUsed0[i])
		}
		n := float64(len(s.pes))
		res.CPUUtil, res.DiskUtil, res.MemUtil, res.MaxCPU = cpu/n, dsk/n, mem/n, maxCPU
	}
	for _, pe := range s.pes {
		res.MemWaits += pe.buf.Waits()
		res.MemSteals += pe.buf.Steals()
		res.StolenPages += pe.buf.StolenPages()
	}
	if s.win != nil {
		res.Windows = s.win.finish(s.k.Now())
		res.WindowMS = s.win.width.Milliseconds()
		res.PeakWindowRTMS, res.RecoveryMS = transientMetrics(res.Windows)
	}
	if s.faults != nil {
		res.FaultSpec = s.cfg.Faults.String()
		res.Aborts = s.faults.aborts
		res.Retries = s.faults.retries
		completed := res.JoinsDone + res.OLTPDone + int64(s.scanRT.N())
		res.Availability = availability(completed, s.faults.aborts)
	}
	return res
}

// String renders a one-line report.
func (r Results) String() string {
	return fmt.Sprintf(
		"%-16s n=%-3d joinRT=%7.0fms (n=%d ±%.0f) deg=%4.1f cpu=%3.0f%% disk=%3.0f%% mem=%3.0f%% tempIO=%d oltpRT=%5.1fms (n=%d)",
		r.Strategy, r.NPE, r.JoinRT.MeanMS, r.JoinRT.N, r.JoinRT.HW95MS, r.AvgJoinDegree,
		100*r.CPUUtil, 100*r.DiskUtil, 100*r.MemUtil, r.TempIOPages, r.OLTPRT.MeanMS, r.OLTPRT.N)
}
