// Package config holds the simulation parameter sets of Rahm & Marek
// (VLDB '95), Fig. 4: system configuration, CPU cost table, database and
// query profile, and workload rates. All packages derive their timing from
// these shared values, so the analytic cost model (internal/costmodel) and
// the simulator (internal/engine) account costs identically.
package config

import (
	"fmt"
	"math"
	"reflect"

	"dynlb/internal/disk"
	"dynlb/internal/netw"
	"dynlb/internal/sim"
)

// CPUCosts is the instruction-count table of Fig. 4.
type CPUCosts struct {
	InitTxn    int64 // initiate a query/transaction (BOT)
	TermTxn    int64 // terminate a query/transaction (commit processing)
	IO         int64 // CPU overhead per I/O operation
	SendMsg    int64 // send a message
	RecvMsg    int64 // receive a message
	Copy8KB    int64 // copy an 8 KB message buffer
	ReadTuple  int64 // read a tuple from a memory page
	HashTuple  int64 // hash a tuple
	InsertHash int64 // insert a tuple into a hash table
	WriteTuple int64 // write a tuple into an output buffer
	ProbeHash  int64 // probe a hash table
}

// DefaultCosts returns the paper's instruction counts.
func DefaultCosts() CPUCosts {
	return CPUCosts{
		InitTxn:    25000,
		TermTxn:    25000,
		IO:         3000,
		SendMsg:    5000,
		RecvMsg:    10000,
		Copy8KB:    5000,
		ReadTuple:  500,
		HashTuple:  500,
		InsertHash: 100,
		WriteTuple: 100,
		ProbeHash:  200,
	}
}

// OLTPPlacement selects which PEs run the OLTP workload in heterogeneous
// experiments (Section 5.3).
type OLTPPlacement int

// Placements.
const (
	OLTPNone    OLTPPlacement = iota
	OLTPOnANode               // the 20% of PEs holding relation A fragments
	OLTPOnBNode               // the 80% of PEs holding relation B fragments
	OLTPOnAll
)

func (p OLTPPlacement) String() string {
	switch p {
	case OLTPNone:
		return "none"
	case OLTPOnANode:
		return "a-nodes"
	case OLTPOnBNode:
		return "b-nodes"
	case OLTPOnAll:
		return "all"
	default:
		return fmt.Sprintf("OLTPPlacement(%d)", int(p))
	}
}

// OLTP configures the debit-credit-like transaction type: four non-clustered
// index selects on per-node account relations with updates of the
// corresponding tuples, affinity-routed to their home node.
type OLTP struct {
	Placement     OLTPPlacement
	TPSPerNode    float64 // arrival rate per OLTP node
	AccessesPerTx int     // tuple accesses (4)
	AccountPages  int64   // per-node account relation size in pages
	HotSetPages   int64   // hot portion kept memory-resident
	HotAccessProb float64 // probability an access hits the hot set
	ExtraInstr    int64   // per-access path length beyond the cost table
}

// DefaultOLTP returns a TPC-B-like profile calibrated so that 100 TPS per
// node yields roughly the paper's 50% CPU / 60% disk / 45% memory
// utilization on OLTP nodes (see EXPERIMENTS.md for the measured values).
func DefaultOLTP() OLTP {
	return OLTP{
		Placement:     OLTPNone,
		TPSPerNode:    100,
		AccessesPerTx: 4,
		AccountPages:  20_000,
		HotSetPages:   30,
		HotAccessProb: 0.85,
		ExtraInstr:    10_000,
	}
}

// ScanClass is an additional standalone query class of the multi-class
// workload model (Section 4 lists relation scans and clustered and
// non-clustered index scans next to join queries). Each class is an open
// arrival stream of single-relation selection queries executed in parallel
// on the relation's home PEs, merging at a random coordinator.
type ScanClass struct {
	Name        string
	QPSPerPE    float64
	OnB         bool    // scan relation B (default: relation A)
	Selectivity float64 // fraction of tuples selected
	// Access path: Clustered reads the matching pages sequentially;
	// otherwise a non-clustered index is used (one random page access per
	// matching tuple, through the buffer). A selectivity of 1 with
	// Clustered models a full relation scan.
	Clustered bool
}

// Config is the complete parameter set of one simulation run.
type Config struct {
	// System configuration.
	NPE         int     // number of processing elements (10..80)
	CPUsPerPE   int     // CPU servers per PE
	MIPS        float64 // capacity per CPU in MIPS
	BufferPages int     // main-memory buffer per PE (50 pages = 0.4 MB)
	DisksPerPE  int     // database/temp disks per PE
	Disk        disk.Params
	Net         netw.Params
	MPL         int // max concurrent transactions per PE

	Costs CPUCosts

	// Database profile.
	ATuples    int64   // inner relation A (250,000)
	BTuples    int64   // outer relation B (1,000,000)
	TupleBytes int     // 400 B
	Blocking   int     // tuples per page (20)
	AFraction  float64 // fraction of PEs holding A (0.2); B gets the rest

	// Join query profile.
	ScanSelectivity float64 // fraction of tuples matching the scan predicates
	FudgeFactor     float64 // hash table overhead F (1.05)
	ResultFraction  float64 // result size relative to inner scan output (1.0)
	JoinQPSPerPE    float64 // multi-user arrival rate per PE (0 = single-user)
	// RedistributionSkew models skew in the join attribute's hash
	// partitioning (the paper's Section 7 outlook): join process i receives
	// a share proportional to 1/(i+1)^skew. 0 = uniform (the paper's main
	// experiments assume "no or only little redistribution skew").
	RedistributionSkew float64

	OLTP OLTP

	// ScanClasses are additional standalone scan query streams.
	ScanClasses []ScanClass

	// Control node behaviour (Section 3).
	// MemAdmitFrac > 0 enables query-atomic memory admission: the control
	// node hands out at most this fraction of aggregate buffer memory to
	// concurrent joins before queueing new ones. Off by default — the
	// paper's per-node FCFS memory queue (with the buffer manager's
	// liveness breaker) is the primary mechanism; this exists for the
	// admission ablation.
	MemAdmitFrac   float64
	ReportInterval sim.Duration // PE utilization reporting period
	CtrlSmoothing  float64      // EWMA weight of the newest CPU report
	AdaptiveBump   bool         // LUC/LUM adaptive info adjustment

	// Profile modulates arrival rates and redistribution skew over
	// simulated time (see LoadProfile). The zero value is the constant
	// profile — bit-identical to the steady-state behaviour.
	Profile LoadProfile

	// MetricsWindow > 0 slices the measurement interval into fixed-width
	// windows, each reporting response-time mean/p95, throughput and
	// CPU/disk/memory utilization (engine.Results.Windows), plus derived
	// transient metrics (peak-window RT, recovery time). 0 disables
	// windowed collection; steady-state results are unchanged either way.
	MetricsWindow sim.Duration

	// Faults injects PE crashes and disk/CPU degradations at scheduled
	// simulated times (see FaultPlan). The zero value injects nothing and
	// is bit-identical to a config without a plan.
	Faults FaultPlan

	// Simulation horizon.
	Seed        int64
	Warmup      sim.Duration
	MeasureTime sim.Duration
}

// Default returns the paper's Fig. 4 settings with a 1% scan selectivity,
// 80 PEs and multi-user join arrivals disabled.
func Default() Config {
	return Config{
		NPE:         80,
		CPUsPerPE:   1,
		MIPS:        20,
		BufferPages: 50,
		DisksPerPE:  10,
		Disk:        disk.Defaults(),
		Net:         netw.Defaults(),
		MPL:         8,

		Costs: DefaultCosts(),

		ATuples:    250_000,
		BTuples:    1_000_000,
		TupleBytes: 400,
		Blocking:   20,
		AFraction:  0.2,

		ScanSelectivity: 0.01,
		FudgeFactor:     1.05,
		ResultFraction:  1.0,
		JoinQPSPerPE:    0,

		OLTP: DefaultOLTP(),

		MemAdmitFrac:   0.9,
		ReportInterval: 500 * sim.Millisecond,
		CtrlSmoothing:  0.5,
		AdaptiveBump:   true,

		Seed:        1,
		Warmup:      5 * sim.Second,
		MeasureTime: 60 * sim.Second,
	}
}

// Validate checks the configuration for structural errors. Float bounds
// are written as !(in range) so that NaN fails them too.
func (c *Config) Validate() error {
	switch {
	case c.NPE < 2:
		return fmt.Errorf("config: NPE %d < 2", c.NPE)
	case c.CPUsPerPE < 1:
		return fmt.Errorf("config: CPUsPerPE %d < 1", c.CPUsPerPE)
	case !(c.MIPS > 0):
		return fmt.Errorf("config: MIPS %v not > 0", c.MIPS)
	case c.BufferPages < 2:
		return fmt.Errorf("config: BufferPages %d < 2", c.BufferPages)
	case c.DisksPerPE < 1:
		return fmt.Errorf("config: DisksPerPE %d < 1", c.DisksPerPE)
	case c.MPL < 1:
		return fmt.Errorf("config: MPL %d < 1", c.MPL)
	case c.ATuples <= 0 || c.BTuples <= 0:
		return fmt.Errorf("config: relation sizes %d/%d", c.ATuples, c.BTuples)
	case c.TupleBytes < 1:
		return fmt.Errorf("config: TupleBytes %d < 1", c.TupleBytes)
	case c.Blocking < 1:
		return fmt.Errorf("config: blocking factor %d", c.Blocking)
	case c.Net.PacketBytes < 1:
		return fmt.Errorf("config: Net.PacketBytes %d < 1", c.Net.PacketBytes)
	case c.Disk.Prefetch < 1:
		return fmt.Errorf("config: Disk.Prefetch %d < 1", c.Disk.Prefetch)
	case c.Net.WirePerPacket < 0 || c.Net.Latency < 0:
		return fmt.Errorf("config: negative network time in %+v", c.Net)
	case c.Disk.CtrlPerPage < 0 || c.Disk.TransferPerPage < 0 || c.Disk.AvgAccess < 0 || c.Disk.PrefetchPerPage < 0:
		return fmt.Errorf("config: negative disk time in %+v", c.Disk)
	case !(c.JoinQPSPerPE >= 0) || math.IsInf(c.JoinQPSPerPE, 1):
		// An infinite rate rounds every interarrival time to 0 ns, so the
		// arrival loop would never advance the clock.
		return fmt.Errorf("config: JoinQPSPerPE %v not finite and >= 0", c.JoinQPSPerPE)
	case !(c.ScanSelectivity >= 0 && c.ScanSelectivity <= 1):
		return fmt.Errorf("config: scan selectivity %v outside [0,1]", c.ScanSelectivity)
	case !(c.ResultFraction >= 0) || math.IsInf(c.ResultFraction, 1):
		return fmt.Errorf("config: result fraction %v not finite and >= 0", c.ResultFraction)
	case c.Disk.CacheSize < 0:
		return fmt.Errorf("config: Disk.CacheSize %d < 0", c.Disk.CacheSize)
	case !(c.MemAdmitFrac >= 0 && c.MemAdmitFrac <= 1):
		return fmt.Errorf("config: MemAdmitFrac %v outside [0,1]", c.MemAdmitFrac)
	case !(c.FudgeFactor >= 1):
		return fmt.Errorf("config: fudge factor %v not >= 1", c.FudgeFactor)
	case !(c.AFraction > 0 && c.AFraction < 1):
		return fmt.Errorf("config: A fraction %v outside (0,1)", c.AFraction)
	case !(c.RedistributionSkew >= 0 && c.RedistributionSkew <= 2):
		return fmt.Errorf("config: redistribution skew %v outside [0,2]", c.RedistributionSkew)
	case !(c.CtrlSmoothing > 0 && c.CtrlSmoothing <= 1):
		return fmt.Errorf("config: control smoothing %v outside (0,1]", c.CtrlSmoothing)
	case c.ReportInterval <= 0:
		return fmt.Errorf("config: report interval %v <= 0", c.ReportInterval)
	case c.Warmup < 0:
		return fmt.Errorf("config: warm-up %v < 0", c.Warmup)
	case c.MeasureTime <= 0:
		return fmt.Errorf("config: measure time %v <= 0", c.MeasureTime)
	case c.MetricsWindow < 0:
		return fmt.Errorf("config: metrics window %v < 0", c.MetricsWindow)
	case c.MetricsWindow > 0 && c.MetricsWindow < sim.Millisecond:
		// A sub-millisecond window would produce millions of near-empty
		// windows per run; treat it as a unit confusion, not a request.
		return fmt.Errorf("config: metrics window %v < 1ms", c.MetricsWindow)
	}
	// A negative instruction count would silently drop CPU work: the engine
	// charges nothing for a non-positive count.
	costs := reflect.ValueOf(c.Costs)
	for i := range costs.NumField() {
		if n := costs.Field(i).Int(); n < 0 {
			return fmt.Errorf("config: Costs.%s %d < 0", costs.Type().Field(i).Name, n)
		}
	}
	if err := c.Profile.Validate(); err != nil {
		return err
	}
	if err := c.Faults.Validate(c.NPE); err != nil {
		return err
	}
	peak := c.Profile.PeakMult()
	if err := checkRate("JoinQPSPerPE*NPE", c.JoinQPSPerPE*float64(c.NPE), peak); err != nil {
		return err
	}
	for i, sc := range c.ScanClasses {
		if !(sc.QPSPerPE > 0 && !math.IsInf(sc.QPSPerPE, 1) && sc.Selectivity > 0 && sc.Selectivity <= 1) {
			return fmt.Errorf("config: scan class %d (%s) invalid: %+v", i, sc.Name, sc)
		}
		if err := checkRate(fmt.Sprintf("scan class %d (%s) QPSPerPE*NPE", i, sc.Name), sc.QPSPerPE*float64(c.NPE), peak); err != nil {
			return err
		}
	}
	if c.OLTP.Placement != OLTPNone {
		o := c.OLTP
		if !(o.TPSPerNode > 0) || math.IsInf(o.TPSPerNode, 1) || o.AccessesPerTx < 1 || o.AccountPages < 1 || o.ExtraInstr < 0 {
			return fmt.Errorf("config: OLTP profile %+v invalid", o)
		}
		if err := checkRate("OLTP.TPSPerNode", o.TPSPerNode, peak); err != nil {
			return err
		}
		if !(o.HotAccessProb >= 0 && o.HotAccessProb <= 1) {
			return fmt.Errorf("config: OLTP hot access probability %v", o.HotAccessProb)
		}
		// An access draws its page from [0, HotSetPages) or from
		// [HotSetPages, AccountPages); whichever range the probability can
		// pick must be non-empty.
		if o.HotSetPages < 0 || (o.HotAccessProb > 0 && o.HotSetPages < 1) ||
			(o.HotAccessProb < 1 && o.HotSetPages >= o.AccountPages) {
			return fmt.Errorf("config: OLTP hot set %d pages of %d invalid at hot access probability %v",
				o.HotSetPages, o.AccountPages, o.HotAccessProb)
		}
	}
	return nil
}

// maxArrivalRate bounds an open arrival stream, in arrivals per simulated
// second. Above it the mean interarrival time is under 1 ns: draws round
// to 0 ns, and the arrival loop stops advancing the clock.
const maxArrivalRate = 1e9

// checkRate rejects an arrival stream whose base rate times the load
// profile's peak multiplier exceeds maxArrivalRate.
func checkRate(stream string, rate, peak float64) error {
	if rate*peak > maxArrivalRate {
		return fmt.Errorf("config: %s peak arrival rate %g/s above %g/s", stream, rate*peak, maxArrivalRate)
	}
	return nil
}

// CPUTime converts an instruction count to simulated time at MIPS speed.
func (c *Config) CPUTime(instr int64) sim.Duration {
	if instr <= 0 {
		return 0
	}
	return sim.Duration(float64(instr) * 1000.0 / c.MIPS) // ns per instruction = 1000/MIPS
}

// NANodes returns the number of PEs holding A fragments (at least 1).
func (c *Config) NANodes() int {
	n := int(float64(c.NPE)*c.AFraction + 0.5)
	if n < 1 {
		n = 1
	}
	if n >= c.NPE {
		n = c.NPE - 1
	}
	return n
}

// NBNodes returns the number of PEs holding B fragments.
func (c *Config) NBNodes() int { return c.NPE - c.NANodes() }

// ANodes returns the PE ids of the A data nodes (the first NANodes PEs).
func (c *Config) ANodes() []int {
	out := make([]int, c.NANodes())
	for i := range out {
		out[i] = i
	}
	return out
}

// BNodes returns the PE ids of the B data nodes.
func (c *Config) BNodes() []int {
	na := c.NANodes()
	out := make([]int, c.NPE-na)
	for i := range out {
		out[i] = na + i
	}
	return out
}

// TuplesPerPacket returns how many tuples fit one network packet.
func (c *Config) TuplesPerPacket() int64 {
	n := int64(c.Net.PacketBytes / c.TupleBytes)
	if n < 1 {
		n = 1
	}
	return n
}

// AScanTuples returns the join's inner input size |sel(A)| in tuples.
func (c *Config) AScanTuples() int64 {
	return SelTuples(c.ATuples, c.ScanSelectivity)
}

// BScanTuples returns the join's outer input size |sel(B)| in tuples.
func (c *Config) BScanTuples() int64 {
	return SelTuples(c.BTuples, c.ScanSelectivity)
}

// AScanPages returns the pages of the inner join input b_i.
func (c *Config) AScanPages() int64 {
	return PagesFor(c.AScanTuples(), c.Blocking)
}

// SelTuples returns how many of n tuples a predicate of selectivity sel
// selects: none at sel <= 0, all at sel >= 1, else the rounded share and
// at least one.
func SelTuples(n int64, sel float64) int64 {
	if sel <= 0 {
		return 0
	}
	if sel >= 1 {
		return n
	}
	t := int64(float64(n)*sel + 0.5)
	if t < 1 {
		t = 1
	}
	return t
}

// PagesFor returns the pages that tuples occupy at blocking tuples per page.
func PagesFor(tuples int64, blocking int) int64 {
	if tuples <= 0 {
		return 0
	}
	return (tuples + int64(blocking) - 1) / int64(blocking)
}
