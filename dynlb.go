// Package dynlb reproduces Rahm & Marek, "Dynamic Multi-Resource Load
// Balancing in Parallel Database Systems" (VLDB 1995): a discrete-event
// simulation of a Shared Nothing parallel database system executing
// parallel hash joins (and optionally debit-credit OLTP transactions) under
// the paper's family of static/dynamic, isolated/integrated load-balancing
// strategies, which decide the degree of join parallelism and the selection
// of join processors from the current CPU and memory situation.
//
// Quick start — one simulation run:
//
//	cfg := dynlb.DefaultConfig()
//	cfg.NPE = 40
//	cfg.JoinQPSPerPE = 0.25
//	res, err := dynlb.Run(cfg, dynlb.MustStrategy("OPT-IO-CPU"))
//
// The built-in strategies carry the paper's names: the static degrees
// psu-opt and psu-noIO, the dynamic pmu-cpu (formula 3.2), the selections
// RANDOM / LUC / LUM, and the integrated MIN-IO, MIN-IO-SUOPT and
// OPT-IO-CPU. Custom strategies implement the Strategy interface over the
// control node's View.
//
// # Experiments
//
// Sweeps are built and executed through one composable entry point: an
// Experiment over a point source — Figure("6") reproduces a paper figure,
// a Sweep varies any Config dimension along user-defined axes — refined by
// functional options and executed by (*Experiment).Run:
//
//	rows, err := dynlb.NewExperiment(
//		dynlb.Figure("6"),
//		dynlb.WithScale(dynlb.ScaleQuick),
//		dynlb.WithReps(5),                 // 5 deterministic seeds per point, 95% CIs
//		dynlb.WithProgress(func(r dynlb.Row) { fmt.Println(r.Series, r.X, r.JoinRTMS) }),
//	).Run(ctx)
//
// A custom sweep the paper never ran is a few lines — no fork of the
// figure planners:
//
//	sweep := dynlb.Sweep{
//		Name:       "rt-vs-disks",
//		Base:       cfg,
//		Strategies: []dynlb.Strategy{dynlb.MustStrategy("MIN-IO-SUOPT")},
//		Axes: []dynlb.Axis{
//			dynlb.IntAxis("disks/PE", func(c *dynlb.Config, d int) { c.DisksPerPE = d }, 1, 2, 5, 10),
//		},
//	}
//	rows, err := dynlb.NewExperiment(sweep, dynlb.WithReps(3)).Run(ctx)
//
// Replication (WithReps/WithSeeds: across-replicate means with Student-t
// confidence half-widths in Row.Rep) and paired comparison (WithCompare:
// two strategies on identical replicate seeds — common random numbers —
// with paired-t deltas in Row.Cmp) are orthogonal options, all points fan
// out over one worker pool (WithWorkers), rows are bit-identical at any
// worker count, ctx cancellation stops the sweep promptly, and WithProgress
// streams rows in deterministic order as they complete. ReplicateSeeds
// derives the standard seed stream (replicate 0 is the base seed; further
// replicates come from a splitmix64 stream, independent of worker count).
//
// Rows serialize with WriteRowsCSV and WriteRowsJSON.
package dynlb

import (
	"fmt"
	"runtime/debug"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/costmodel"
	"dynlb/internal/engine"
	"dynlb/internal/sim"
)

// Config is the full parameter set of a simulation run: system
// configuration, the Fig. 4 CPU cost table, database and query profile,
// workload rates and the control-node behaviour. Obtain defaults with
// DefaultConfig and mutate fields.
type Config = config.Config

// OLTPPlacement selects which PEs run the OLTP workload.
type OLTPPlacement = config.OLTPPlacement

// OLTP placements for heterogeneous workloads (Section 5.3).
const (
	OLTPNone    = config.OLTPNone
	OLTPOnANode = config.OLTPOnANode
	OLTPOnBNode = config.OLTPOnBNode
	OLTPOnAll   = config.OLTPOnAll
)

// Strategy decides the degree of join parallelism and the join processors
// for one query (see package core for the built-ins).
type Strategy = core.Strategy

// View is the control node's per-PE CPU/memory knowledge strategies
// consult.
type View = core.View

// QueryInfo carries the per-query planning constants (inner input size,
// fudge factor, p_su-opt, p_su-noIO).
type QueryInfo = core.QueryInfo

// Decision is a strategy's placement output.
type Decision = core.Decision

// Results are the measured outcomes of one run.
type Results = engine.Results

// Summary condenses a response-time distribution.
type Summary = engine.Summary

// Window is one fixed-width metrics slice of a windowed run (see
// Config.MetricsWindow and WithMetricsWindow).
type Window = engine.Window

// LoadProfile modulates arrival rates and redistribution skew over
// simulated time (see Config.Profile and WithProfile). Build one with the
// profile constructors below or parse a -profile flag spec with
// ParseProfile; the zero value is the constant (steady-state) profile.
type LoadProfile = config.LoadProfile

// ProfileKind selects the shape of a LoadProfile.
type ProfileKind = config.ProfileKind

// Profile kinds.
const (
	ProfileConstant = config.ProfileConstant
	ProfileSquare   = config.ProfileSquare
	ProfileDiurnal  = config.ProfileDiurnal
	ProfileDrift    = config.ProfileDrift
	ProfileFlash    = config.ProfileFlash
)

// ConstantProfile returns the steady-state (identity) load profile.
func ConstantProfile() LoadProfile { return config.ConstantProfile() }

// SquareWave returns a square-wave burst profile: arrival rate × factor for
// the first duty fraction of every period.
func SquareWave(factor float64, period sim.Duration, duty float64) LoadProfile {
	return config.SquareWave(factor, period, duty)
}

// DiurnalProfile returns a sinusoidal arrival-rate profile:
// rate × (1 + amp·sin(2πt/period)).
func DiurnalProfile(amp float64, period sim.Duration) LoadProfile {
	return config.Diurnal(amp, period)
}

// SkewDrift returns a profile drifting the redistribution skew by slope per
// simulated second from the measurement start.
func SkewDrift(slope float64) LoadProfile { return config.SkewDrift(slope) }

// FlashCrowd returns a flash-crowd profile: inside [start, start+duration)
// the arrival rate is multiplied by factor and the redistribution skew
// raised by hotSkew.
func FlashCrowd(start, duration sim.Duration, factor, hotSkew float64) LoadProfile {
	return config.FlashCrowd(start, duration, factor, hotSkew)
}

// ParseProfile parses a load-profile spec in the commands' -profile syntax,
// e.g. "square:factor=4,period=2s,duty=0.5" (see config.ParseProfile for
// the full grammar).
func ParseProfile(spec string) (LoadProfile, error) { return config.ParseProfile(spec) }

// FaultPlan schedules deterministic failures — PE crashes, disk slowdowns,
// CPU stragglers — at simulated times (see Config.Faults and WithFaults).
// Build one from the constructors below or parse a -faults flag spec with
// ParseFaults; the zero value injects nothing and keeps the fault-free code
// path bit-identical.
type FaultPlan = config.FaultPlan

// Fault is one scheduled failure of a FaultPlan.
type Fault = config.Fault

// FaultKind selects what a Fault breaks.
type FaultKind = config.FaultKind

// Fault kinds.
const (
	FaultCrash     = config.FaultCrash
	FaultSlowDisk  = config.FaultSlowDisk
	FaultStraggler = config.FaultStraggler
)

// Crash returns a fault taking pe offline at time at (measured from the
// measurement start, like LoadProfile time) and recovering it after down
// (0 = never recovers).
func Crash(pe int, at, down Duration) Fault { return config.Crash(pe, at, down) }

// SlowDisk returns a fault stretching pe's disk service times by factor for
// dur (0 = until the end of the run), starting at time at.
func SlowDisk(pe int, at, dur Duration, factor float64) Fault {
	return config.SlowDisk(pe, at, dur, factor)
}

// Straggler returns a fault stretching pe's CPU costs by factor for dur
// (0 = until the end of the run), starting at time at.
func Straggler(pe int, at, dur Duration, factor float64) Fault {
	return config.Straggler(pe, at, dur, factor)
}

// ParseFault parses one fault spec in the commands' -faults syntax, e.g.
// "crash(pe=3,at=20s,down=10s)" (see config.ParseFault for the grammar).
func ParseFault(spec string) (Fault, error) { return config.ParseFault(spec) }

// ParseFaults parses a semicolon-separated fault plan, e.g.
// "crash(pe=3,at=20s,down=10s);slowdisk(pe=2,at=15s,for=20s,factor=4)".
// Empty and "none" return the empty plan.
func ParseFaults(spec string) (FaultPlan, error) { return config.ParseFaults(spec) }

// DefaultConfig returns the paper's Fig. 4 parameter settings (80 PEs,
// 20 MIPS CPUs, 50-page buffers, 10 disks/PE, 1% scan selectivity,
// single-user join workload, no OLTP).
func DefaultConfig() Config { return config.Default() }

// Strategy constructors re-exported from the core package.

// StrategyByName builds a built-in strategy from its paper name, e.g.
// "psu-opt+RANDOM", "pmu-cpu+LUM", "MIN-IO-SUOPT", "OPT-IO-CPU".
func StrategyByName(name string) (Strategy, error) { return core.ByName(name) }

// MustStrategy is StrategyByName panicking on unknown names.
func MustStrategy(name string) Strategy { return core.MustByName(name) }

// StrategyNames lists all built-in strategy names.
func StrategyNames() []string { return core.Names() }

// FixedDegree returns an isolated strategy with an explicit static degree
// and the given selection policy name (RANDOM, LUC or LUM); it backs the
// Fig. 1 response-time curves and ablations.
func FixedDegree(p int, selection string) (Strategy, error) {
	name := "psu-opt+" + selection
	s, err := core.ByName(name)
	if err != nil {
		return nil, err
	}
	iso, ok := s.(core.Isolated)
	if !ok {
		// Guards against a future ByName routing a degree+selection name to a
		// non-isolated implementation: fail with a diagnosis, not a panic.
		return nil, fmt.Errorf("dynlb: FixedDegree needs an isolated degree+selection strategy, but %q is a %T", name, s)
	}
	iso.Deg = core.StaticDegree{P: p}
	return iso, nil
}

// Run simulates cfg under the strategy and returns the windowed results.
// A panic inside the simulation — in a custom Strategy's Decide, say — is
// returned as Run's error after the simulation is torn down. The error
// carries the stack of the panic site, names the simulated process when
// the panic arose in one, and unwraps to the panic value when that is an
// error.
func Run(cfg Config, s Strategy) (res Results, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *sim.ProcPanic:
			err = r
		case error:
			err = fmt.Errorf("dynlb: simulation panicked: %w\n\n%s", r, debug.Stack())
		default:
			err = fmt.Errorf("dynlb: simulation panicked: %v\n\n%s", r, debug.Stack())
		}
	}()
	sys, err := engine.New(cfg, s)
	if err != nil {
		return Results{}, err
	}
	return sys.Run(), nil
}

// PsuOpt returns the single-user optimal degree of join parallelism for the
// configuration's join query (the analytic model of Section 2).
func PsuOpt(cfg Config) int { return costmodel.New(cfg).PsuOpt() }

// PsuNoIO returns formula 3.1: the minimal degree avoiding temporary file
// I/O in single-user mode.
func PsuNoIO(cfg Config) int { return costmodel.New(cfg).PsuNoIO() }

// ResponseTimeCurve returns the analytic single-user response time in
// milliseconds for degrees 1..maxP (the Fig. 1a curve).
func ResponseTimeCurve(cfg Config, maxP int) []float64 {
	curve := costmodel.New(cfg).Curve(maxP)
	out := make([]float64, len(curve))
	for i, rt := range curve {
		out[i] = rt.Milliseconds()
	}
	return out
}

// Duration is the simulator's time-span type (integer nanoseconds), used by
// Config.Warmup/MeasureTime/MetricsWindow and the load-profile parameters.
type Duration = sim.Duration

// Seconds converts a float64 seconds value into the simulator's duration
// type for configuring Warmup and MeasureTime.
func Seconds(s float64) sim.Duration { return sim.FromSeconds(s) }
