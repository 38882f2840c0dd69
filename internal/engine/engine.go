// Package engine assembles the simulated Shared Nothing database system of
// Rahm & Marek (VLDB '95, Section 4): processing elements with CPU servers,
// a buffer manager, a disk subsystem, a lock table, a transaction manager
// (multiprogramming-level admission) and a communication manager over the
// packet network — plus the workload drivers (parallel hash-join queries
// and debit-credit-style OLTP transactions) and the control node that feeds
// the load-balancing strategies of internal/core.
package engine

import (
	"fmt"
	"math/rand"

	"dynlb/internal/buffer"
	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/costmodel"
	"dynlb/internal/disk"
	"dynlb/internal/lock"
	"dynlb/internal/netw"
	"dynlb/internal/sim"
	"dynlb/internal/stats"
)

// PE is one processing element of the Shared Nothing system.
type PE struct {
	id      int
	sys     *System
	cpu     *sim.Server
	disks   *disk.Subsystem
	logDisk *disk.Subsystem
	buf     *buffer.Manager
	locks   *lock.Table
	mpl     *sim.Store

	// cpuSlow > 1 stretches every CPU charge by that factor (fault
	// injection: a straggler PE). 1 is the unmodified fast path.
	cpuSlow float64

	// utilization snapshot for periodic control reports.
	lastReportAt   sim.Time
	lastReportBusy float64
}

// ID returns the PE id.
func (pe *PE) ID() int { return pe.id }

// compute charges instr instructions on this PE's CPU for process p.
func (pe *PE) compute(p *sim.Proc, instr int64) {
	if instr <= 0 {
		return
	}
	pe.cpu.Use(p, pe.stretchCPU(pe.sys.cfg.CPUTime(instr)))
}

// stretchCPU applies the straggler degradation factor to a CPU duration.
// cpuSlow == 1 (the fault-free state) returns d untouched — no float
// multiply, bit-identical.
func (pe *PE) stretchCPU(d sim.Duration) sim.Duration {
	if pe.cpuSlow > 1 {
		return sim.Duration(float64(d) * pe.cpuSlow)
	}
	return d
}

// computeT charges a pre-converted CPU duration (see costT). The inner
// loops batch their loop-invariant instruction counts into durations once
// per run; each charge is then a single Server.Use. The kernel's
// continuation fast path resumes the process without a switch when its own
// wake-up is the next event; when another process's event comes first —
// the common case in a multi-user run — the hold costs a coroutine switch
// through the root Run loop.
//
// The skip sentinel (d < 0, see newCostT) mirrors compute's instr <= 0
// guard exactly: a positive instruction count whose duration rounds to
// zero still passes through the CPU server — a zero-length Use queues
// FCFS like any other — so results match compute bit-for-bit in every
// config corner.
func (pe *PE) computeT(p *sim.Proc, d sim.Duration) {
	if d < 0 {
		return
	}
	pe.cpu.Use(p, pe.stretchCPU(d))
}

// costT holds the cost-model segments the hot inner loops charge with
// constant instruction counts, pre-converted to simulated durations. Each
// value is CPUTime of exactly the instruction expression the call site used
// to pass, so the event stream — and every simulation result — is
// unchanged; only the per-call float conversion is hoisted out of the
// loops. Variable-count charges (per-tuple batches, message copies) keep
// calling compute.
type costT struct {
	initTxn     sim.Duration // transaction setup
	termTxn     sim.Duration // commit processing
	termTxnHalf sim.Duration // abort cleanup (TermTxn/2)
	io          sim.Duration // CPU overhead of one physical I/O
	sendMsg     sim.Duration // control-message send
	recvMsg     sim.Duration // control-message receive
	oltpIndex   sim.Duration // OLTP non-clustered index traversal (3·ReadTuple + ExtraInstr)
	tupleRW     sim.Duration // one tuple read + update (ReadTuple + WriteTuple)
	scanDescent sim.Duration // resident B+-tree descent (3·ReadTuple)
	ctrlDecide  sim.Duration // control-node placement computation
}

func newCostT(cfg *config.Config) costT {
	// A non-positive instruction count means "skip the CPU entirely"
	// (compute's guard); encode it as -1 so computeT can distinguish it
	// from a positive count that rounds to a zero duration, which must
	// still occupy the FCFS server.
	conv := func(instr int64) sim.Duration {
		if instr <= 0 {
			return -1
		}
		return cfg.CPUTime(instr)
	}
	return costT{
		initTxn:     conv(cfg.Costs.InitTxn),
		termTxn:     conv(cfg.Costs.TermTxn),
		termTxnHalf: conv(cfg.Costs.TermTxn / 2),
		io:          conv(cfg.Costs.IO),
		sendMsg:     conv(cfg.Costs.SendMsg),
		recvMsg:     conv(cfg.Costs.RecvMsg),
		oltpIndex:   conv(3*cfg.Costs.ReadTuple + cfg.OLTP.ExtraInstr),
		tupleRW:     conv(cfg.Costs.ReadTuple + cfg.Costs.WriteTuple),
		scanDescent: conv(3 * cfg.Costs.ReadTuple),
		ctrlDecide:  conv(2000),
	}
}

// cpuSince returns the CPU utilization since the last report and rolls the
// snapshot forward.
func (pe *PE) cpuSince() float64 {
	now := pe.sys.k.Now()
	u := pe.cpu.UtilizationSince(pe.lastReportAt, pe.lastReportBusy)
	pe.lastReportAt = now
	pe.lastReportBusy = pe.cpu.BusyIntegral()
	return u
}

// System is one configured simulation instance.
type System struct {
	cfg      config.Config
	k        *sim.Kernel
	rng      *rand.Rand
	net      *netw.Network
	pes      []*PE
	ctrl     *core.ControlNode
	ctrlPE   int
	strategy core.Strategy
	detector *lock.Detector
	model    *costmodel.Model
	qinfo    core.QueryInfo

	ct costT // pre-converted constant cost segments of the hot loops

	// profileConst caches cfg.Profile.IsConstant(): the arrival loops and
	// initWeights branch on it so a constant profile keeps the exact
	// steady-state code path (and its bit-identical event stream).
	profileConst bool

	// faults is the fault-injection state, nil when Config.Faults is empty
	// so fault-free runs take the original code path (see faults.go).
	faults *faultState

	nextSpace int64
	nextTxn   lock.TxnID
	nextQuery int64

	// memBudget is the control node's query-atomic memory admission: each
	// join debits its aggregate working-space demand before starting and
	// credits it on completion (nil when disabled). This is the FCFS
	// "memory queue" of Section 4 lifted to query granularity, which keeps
	// partially-placed queries from deadlocking each other.
	memBudget *sim.Store

	// Measurement state (reset at warm-up end).
	measuring    bool
	measureFrom  sim.Time
	cpuBusy0     []float64
	diskBusy0    []float64
	memUsed0     []float64
	tempIO0      int64
	joinRT       *stats.Sample
	oltpRT       *stats.Sample
	scanRT       *stats.Sample
	degrees      *stats.Sample
	memWaitMS    *stats.Sample
	tempIOPages  int64
	joinsStarted int64
	oltpStarted  int64
	aborts       int64

	// win collects fixed-width metric windows (nil unless
	// cfg.MetricsWindow > 0; created at warm-up end).
	win *windowState
}

// New builds a system for cfg with the given load-balancing strategy.
func New(cfg config.Config, strategy core.Strategy) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if strategy == nil {
		return nil, fmt.Errorf("engine: nil strategy")
	}
	k := sim.NewKernel()
	s := &System{
		cfg:      cfg,
		k:        k,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		net:      netw.New(k, cfg.NPE, cfg.Net),
		ctrl:     core.NewControlNode(cfg.NPE, cfg.CtrlSmoothing, cfg.AdaptiveBump),
		ctrlPE:   0,
		strategy: strategy,
		detector: lock.NewDetector(k, sim.Second),
		model:    costmodel.New(cfg),
		ct:       newCostT(&cfg),

		profileConst: cfg.Profile.IsConstant(),

		joinRT:    stats.NewSample("join-rt-ms"),
		oltpRT:    stats.NewSample("oltp-rt-ms"),
		scanRT:    stats.NewSample("scan-rt-ms"),
		degrees:   stats.NewSample("join-degree"),
		memWaitMS: stats.NewSample("mem-wait-ms"),
	}
	s.qinfo = core.QueryInfo{
		InnerPages: cfg.AScanPages(),
		Fudge:      cfg.FudgeFactor,
		PsuOpt:     s.model.PsuOpt(),
		PsuNoIO:    s.model.PsuNoIO(),
	}
	for i := 0; i < cfg.NPE; i++ {
		pe := &PE{
			id:      i,
			sys:     s,
			cpu:     sim.NewServer(k, fmt.Sprintf("pe%d/cpu", i), cfg.CPUsPerPE),
			disks:   disk.New(k, fmt.Sprintf("pe%d", i), cfg.DisksPerPE, cfg.Disk),
			mpl:     sim.NewStore(k, fmt.Sprintf("pe%d/mpl", i), cfg.MPL),
			locks:   lock.NewTable(k, fmt.Sprintf("pe%d/locks", i)),
			cpuSlow: 1,
		}
		logParams := cfg.Disk
		logParams.CacheSize = 0
		logParams.Prefetch = 1
		logParams.AvgAccess = sim.Millisecond // sequential append, no seek
		pe.logDisk = disk.New(k, fmt.Sprintf("pe%d/log", i), 1, logParams)
		pe.buf = buffer.NewManager(k, fmt.Sprintf("pe%d/buf", i), cfg.BufferPages, buffer.DiskHooks{
			ReadPage: func(p *sim.Proc, pg disk.PageID, seq bool) {
				pe.computeT(p, s.ct.io)
				pe.disks.Read(p, dataDisk(pe, pg), pg, seq)
			},
			WriteAsync: func(pg disk.PageID) {
				pe.disks.WriteAsync(dataDisk(pe, pg), pg)
			},
		})
		s.detector.Register(pe.locks)
		s.pes = append(s.pes, pe)
	}
	// Every PE starts with a full buffer: seed the control view so early
	// decisions see real capacities instead of zeros.
	for i := range s.pes {
		s.ctrl.Report(i, 0, cfg.BufferPages)
	}
	if cfg.MemAdmitFrac > 0 {
		budget := int(cfg.MemAdmitFrac * float64(cfg.NPE*cfg.BufferPages))
		s.memBudget = sim.NewStore(k, "mem-admission", budget)
	}
	if !cfg.Faults.IsEmpty() {
		s.faults = newFaultState(s)
	}
	return s, nil
}

// dataDisk spreads database pages of a space across the PE's disks
// (space ids may be negative).
func dataDisk(pe *PE, pg disk.PageID) int {
	n := int64(pe.disks.NDisks())
	d := ((pg.Space+pg.Page)%n + n) % n
	return int(d)
}

// MustNew is New panicking on error (tests, benches).
func MustNew(cfg config.Config, strategy core.Strategy) *System {
	s, err := New(cfg, strategy)
	if err != nil {
		panic(err)
	}
	return s
}

// Kernel exposes the simulation kernel (tests).
func (s *System) Kernel() *sim.Kernel { return s.k }

// Config returns the system configuration.
func (s *System) Config() config.Config { return s.cfg }

// QueryInfo returns the per-query planning constants (psu-opt etc.).
func (s *System) QueryInfo() core.QueryInfo { return s.qinfo }

// Control returns the control node (tests, ablations).
func (s *System) Control() *core.ControlNode { return s.ctrl }

// newSpace allocates a fresh storage-space id.
func (s *System) newSpace() int64 {
	s.nextSpace++
	return s.nextSpace
}

// newTxnID allocates a transaction id (ascending: larger = younger).
func (s *System) newTxnID() lock.TxnID {
	s.nextTxn++
	return s.nextTxn
}

// pe returns the PE with the given id.
func (s *System) pe(id int) *PE { return s.pes[id] }

// beginMeasurement zeroes all windowed statistics at warm-up end.
func (s *System) beginMeasurement() {
	s.measuring = true
	s.measureFrom = s.k.Now()
	s.cpuBusy0 = make([]float64, len(s.pes))
	s.diskBusy0 = make([]float64, len(s.pes))
	s.memUsed0 = make([]float64, len(s.pes))
	for i, pe := range s.pes {
		s.cpuBusy0[i] = pe.cpu.BusyIntegral()
		s.diskBusy0[i] = pe.disks.BusyIntegral()
		s.memUsed0[i] = pe.buf.UsedIntegral()
	}
	s.tempIO0 = s.tempIOPages
	s.joinRT = stats.NewSample("join-rt-ms")
	s.oltpRT = stats.NewSample("oltp-rt-ms")
	s.scanRT = stats.NewSample("scan-rt-ms")
	s.degrees = stats.NewSample("join-degree")
	s.memWaitMS = stats.NewSample("mem-wait-ms")
	s.joinsStarted = 0
	s.oltpStarted = 0
	if s.cfg.MetricsWindow > 0 {
		s.win = newWindowState(s, s.cfg.MetricsWindow)
	}
}
