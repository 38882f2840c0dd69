package dynlb

import (
	"fmt"
	"sort"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

// Scale selects the simulation window of the experiment harness: Quick for
// smoke runs and benchmarks, Normal for day-to-day reproduction, Full for
// the numbers recorded in EXPERIMENTS.md (tighter confidence intervals).
type Scale int

// Scales.
const (
	ScaleQuick Scale = iota
	ScaleNormal
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleNormal:
		return "normal"
	case ScaleFull:
		return "full"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale parses a scale name ("quick", "normal", "full") as produced
// by Scale.String — the -scale flag syntax of the commands and the "scale"
// field of an ExperimentRequest.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick":
		return ScaleQuick, nil
	case "normal":
		return ScaleNormal, nil
	case "full":
		return ScaleFull, nil
	default:
		return 0, fmt.Errorf("dynlb: unknown scale %q (want quick, normal or full)", s)
	}
}

// windows returns warm-up and measurement durations.
func (s Scale) windows() (warmup, measure sim.Duration) {
	switch s {
	case ScaleQuick:
		return 2 * sim.Second, 8 * sim.Second
	case ScaleFull:
		return 5 * sim.Second, 45 * sim.Second
	default:
		return 3 * sim.Second, 20 * sim.Second
	}
}

// Row is one point of an experiment sweep: one (series, x) coordinate with
// the measured response time and the full run results. In a replicated
// sweep (WithReps >= 2 or WithSeeds) the scalar metrics — JoinRTMS, Extra,
// Res — are across-replicate means and Rep carries the confidence
// half-widths; in an unreplicated sweep Rep is nil. In a compared sweep
// (WithCompare) the scalar metrics are the challenger strategy B's and Cmp
// carries the paired A-vs-B deltas; otherwise Cmp is nil.
type Row struct {
	Figure string  `json:"figure"` // source label: figure id or sweep name
	Series string  `json:"series"` // curve label: strategy name or mode
	X      float64 `json:"x"`      // x coordinate (system size, degree, selectivity %)
	XLabel string  `json:"xlabel"` // "#PE", "degree", "selectivity%"

	JoinRTMS float64            `json:"join_rt_ms"`
	Extra    map[string]float64 `json:"extra,omitempty"` // figure-specific values (improvement %, degree, ...)
	Res      Results            `json:"results"`
	Rep      *Replication       `json:"replication,omitempty"` // replicate aggregates; nil when the sweep ran one seed per point
	Cmp      *PairedComparison  `json:"comparison,omitempty"`  // paired A-vs-B aggregates; nil outside compared sweeps
	Runs     []Results          `json:"runs,omitempty"`        // raw per-replicate results; set only under WithRuns (compared sweeps interleave {A, B} per seed)
}

// Figures lists the reproducible figure identifiers of the paper's
// evaluation, in paper order.
func Figures() []string {
	return []string{"1a", "1b", "1c", "5", "6", "7", "8", "9a", "9b"}
}

// FigureDoc returns a one-line description of a figure experiment.
func FigureDoc(fig string) string {
	docs := map[string]string{
		"1a": "single-user response time vs degree of join parallelism (analytic + simulated)",
		"1b": "response time vs degree under CPU contention (multi-user)",
		"1c": "response time vs degree under memory/disk bottleneck",
		"5":  "static degrees psu-noIO/psu-opt x RANDOM/LUC/LUM vs system size (homogeneous, 0.25 QPS/PE)",
		"6":  "dynamic strategies MIN-IO/MIN-IO-SUOPT/pmu-cpu/OPT-IO-CPU vs system size (homogeneous)",
		"7":  "memory-bound environment (mem/10, 1 disk/PE): MIN-IO-SUOPT vs pmu-cpu+LUM",
		"8":  "relative improvement over psu-opt+RANDOM vs join complexity (selectivity, 60 PE)",
		"9a": "heterogeneous workload, OLTP on the A nodes (20%): static vs dynamic strategies",
		"9b": "heterogeneous workload, OLTP on the B nodes (80%): static vs dynamic strategies",
	}
	return docs[fig]
}

// CompareFigures lists the distinct workload sweeps a compared figure
// experiment accepts: the strategy-sweep figures, whose x axis is a
// configuration axis (system size, selectivity) that two strategies can be
// swept along head to head. Figure "5" is also accepted but not listed — it
// shares figure 6's workload axis (the two differ only in which strategies
// they sweep, the dimension a comparison replaces), so listing both would
// make "-fig all -compare" simulate the identical sweep twice. Figures
// 1a/1b/1c sweep the degree of parallelism through their strategies and
// have no config axis to compare on.
func CompareFigures() []string {
	return []string{"6", "7", "8", "9a", "9b"}
}

// comparePoint is one workload configuration of a sweep — a point of the
// source's config axis with its row coordinates, stripped of the strategy
// dimension. singleUser marks the zero-arrival-rate reference points, which
// some planners route differently (fig 5/6 run the single-user reference
// under psu-opt only).
type comparePoint struct {
	series     string
	x          float64
	xlabel     string
	singleUser bool
	cfg        Config
}

// planCompareFigure lists the distinct workload configurations of a
// strategy-sweep figure — the figure's config axis with its per-point
// arrival rates, stripped of the strategy dimension. It is the single
// source of those workloads: the figure planners (planBySize, plan7,
// plan8, plan9) expand the same points across their strategy lists, so a
// compared sweep always runs exactly the configurations the plain figure
// sweep runs.
func planCompareFigure(fig string, scale Scale, seed int64) ([]comparePoint, error) {
	var pts []comparePoint
	switch fig {
	case "5", "6":
		for _, n := range figSizes {
			mu := baseCfg(scale, seed)
			mu.NPE = n
			mu.JoinQPSPerPE = 0.25
			su := mu
			su.JoinQPSPerPE = 0
			pts = append(pts,
				comparePoint{series: "multi-user 0.25 QPS/PE", x: float64(n), xlabel: "#PE", cfg: mu},
				comparePoint{series: "single-user", x: float64(n), xlabel: "#PE", singleUser: true, cfg: su})
		}
	case "7":
		for _, n := range []int{20, 30, 40, 60, 80} {
			for _, series := range []struct {
				qps   float64
				label string
			}{
				{0.05, "multi-user 0.05 QPS/PE"},
				{0.025, "multi-user 0.025 QPS/PE"},
				{0, "single-user"},
			} {
				cfg := baseCfg(scale, seed)
				cfg.NPE = n
				cfg.BufferPages = 5
				cfg.DisksPerPE = 1
				cfg.JoinQPSPerPE = series.qps
				pts = append(pts, comparePoint{
					series: series.label, x: float64(n), xlabel: "#PE",
					singleUser: series.qps == 0, cfg: cfg,
				})
			}
		}
	case "8":
		for _, sel := range []float64{0.001, 0.01, 0.02, 0.05} {
			cfg := baseCfg(scale, seed)
			cfg.NPE = 60
			cfg.ScanSelectivity = sel
			cfg.JoinQPSPerPE = fig8Rates[sel]
			pts = append(pts, comparePoint{series: "60 PE", x: sel * 100, xlabel: "selectivity%", cfg: cfg})
		}
	case "9a", "9b":
		placement := config.OLTPOnANode
		if fig == "9b" {
			placement = config.OLTPOnBNode
		}
		for _, n := range figSizes {
			cfg := baseCfg(scale, seed)
			cfg.NPE = n
			cfg.DisksPerPE = 5
			cfg.JoinQPSPerPE = 0.075
			cfg.OLTP.Placement = placement
			cfg.OLTP.TPSPerNode = 100
			pts = append(pts, comparePoint{series: "OLTP on " + placement.String(), x: float64(n), xlabel: "#PE", cfg: cfg})
		}
	case "1a", "1b", "1c":
		return nil, fmt.Errorf("dynlb: figure %s sweeps the degree through its strategies and has no config axis to compare on (comparable figures: %v)", fig, CompareFigures())
	default:
		return nil, fmt.Errorf("dynlb: unknown figure %q (comparable: %v)", fig, CompareFigures())
	}
	return pts, nil
}

// runJob is one independent simulation of an experiment schedule: a full
// configuration plus the strategy to run it under.
type runJob struct {
	cfg Config
	st  core.Strategy
}

// runOut is the outcome of one sweep point handed to a row builder: the
// (possibly replicate-averaged) results plus the replicate aggregates when
// the point ran more than one seed, plus the paired aggregates when the
// point ran a strategy comparison.
type runOut struct {
	res  Results
	rep  *Replication
	cmp  *PairedComparison
	runs []Results // raw per-replicate results (only under WithRuns)
}

func planFigure(fig string, scale Scale, seed int64) (*pointPlan, error) {
	switch fig {
	case "1a":
		return plan1a(scale, seed)
	case "1b":
		return plan1bc(scale, seed, false)
	case "1c":
		return plan1bc(scale, seed, true)
	case "5":
		return plan5(scale, seed)
	case "6":
		return plan6(scale, seed)
	case "7":
		return plan7(scale, seed)
	case "8":
		return plan8(scale, seed)
	case "9a", "9b":
		return plan9(scale, seed, fig)
	default:
		return nil, fmt.Errorf("dynlb: unknown figure %q (known: %v)", fig, Figures())
	}
}

func jobFor(cfg Config, name string) (runJob, error) {
	st, err := core.ByName(name)
	if err != nil {
		return runJob{}, err
	}
	return runJob{cfg: cfg, st: st}, nil
}

func baseCfg(scale Scale, seed int64) Config {
	cfg := config.Default()
	cfg.Seed = seed
	cfg.Warmup, cfg.MeasureTime = scale.windows()
	return cfg
}

// fig1Degrees are the degree sweep points of the Fig. 1 curves.
var fig1Degrees = []int{1, 2, 4, 8, 12, 16, 20, 24, 32, 40}

// plan1a: the single-user response-time curve — analytic model plus
// simulated single-user points at fixed degrees with RANDOM selection. The
// analytic rows have no simulation dependencies and stream immediately.
func plan1a(scale Scale, seed int64) (*pointPlan, error) {
	cfg := baseCfg(scale, seed)
	cfg.NPE = 40
	p := &pointPlan{}
	for _, deg := range fig1Degrees {
		c := cfg
		c.JoinQPSPerPE = 0 // single-user closed loop
		st, err := FixedDegree(deg, "RANDOM")
		if err != nil {
			return nil, err
		}
		p.jobs = append(p.jobs, runJob{cfg: c, st: st})
	}
	curve := ResponseTimeCurve(cfg, cfg.NPE)
	for deg := 1; deg <= cfg.NPE; deg++ {
		x, rt := float64(deg), curve[deg-1]
		p.rows = append(p.rows, rowSpec{build: func([]runOut) (Row, error) {
			return Row{
				Figure: "1a", Series: "analytic", X: x, XLabel: "degree",
				JoinRTMS: rt,
			}, nil
		}})
	}
	for i, deg := range fig1Degrees {
		x := float64(deg)
		p.rows = append(p.rows, rowSpec{deps: []int{i}, build: func(outs []runOut) (Row, error) {
			return Row{
				Figure: "1a", Series: "simulated", X: x, XLabel: "degree",
				JoinRTMS: outs[0].res.JoinRT.MeanMS, Res: outs[0].res, Rep: outs[0].rep,
			}, nil
		}})
	}
	return p, nil
}

// plan1bc: response time vs degree in multi-user mode — under CPU
// contention (1b) the optimum shifts below the single-user optimum; under a
// memory/disk bottleneck (1c) it shifts above.
func plan1bc(scale Scale, seed int64, memBound bool) (*pointPlan, error) {
	figure := "1b"
	if memBound {
		figure = "1c"
	}
	p := &pointPlan{}
	for i, deg := range fig1Degrees {
		cfg := baseCfg(scale, seed)
		cfg.NPE = 40
		if memBound {
			cfg.BufferPages = 5
			cfg.DisksPerPE = 1
			cfg.JoinQPSPerPE = 0.05
		} else {
			cfg.JoinQPSPerPE = 0.3 // drives high CPU utilization
		}
		st, err := FixedDegree(deg, "RANDOM")
		if err != nil {
			return nil, err
		}
		p.jobs = append(p.jobs, runJob{cfg: cfg, st: st})
		x := float64(deg)
		p.rows = append(p.rows, rowSpec{deps: []int{i}, build: func(outs []runOut) (Row, error) {
			res := outs[0].res
			return Row{
				Figure: figure, Series: "multi-user", X: x, XLabel: "degree",
				JoinRTMS: res.JoinRT.MeanMS,
				Extra:    map[string]float64{"cpu%": 100 * res.CPUUtil, "tempIO": float64(res.TempIOPages)},
				Res:      res,
				Rep:      outs[0].rep,
			}, nil
		}})
	}
	return p, nil
}

// figSizes are the system sizes of the Fig. 5/6/9 sweeps.
var figSizes = []int{10, 20, 40, 60, 80}

// sizeSweep accumulates (config, series label, system size) sweep points
// into a pointPlan whose rows mirror the points one to one. It is the
// shared scaffold of every "#PE on the x axis" figure; post, if non-nil,
// decorates each row from its run.
type sizeSweep struct {
	fig  string
	post func(r *Row, res Results)
	p    pointPlan
}

func (s *sizeSweep) add(cfg Config, name, label string, n int) error {
	j, err := jobFor(cfg, name)
	if err != nil {
		return err
	}
	idx := len(s.p.jobs)
	s.p.jobs = append(s.p.jobs, j)
	fig, post := s.fig, s.post
	s.p.rows = append(s.p.rows, rowSpec{deps: []int{idx}, build: func(outs []runOut) (Row, error) {
		r := sizeRow(fig, label, n, outs[0])
		if post != nil {
			post(&r, outs[0].res)
		}
		return r, nil
	}})
	return nil
}

func (s *sizeSweep) plan() *pointPlan {
	p := s.p
	return &p
}

// planBySize builds the standard "strategies × system sizes plus
// single-user reference" sweep shared by Figs. 5 and 6, expanding the
// shared workload axis (planCompareFigure) across the strategy list.
func planBySize(fig string, scale Scale, seed int64, strategies []string) (*pointPlan, error) {
	pts, err := planCompareFigure("6", scale, seed) // figs 5 and 6 share the workload axis
	if err != nil {
		return nil, err
	}
	sweep := sizeSweep{fig: fig}
	for _, pt := range pts {
		n := int(pt.x)
		if pt.singleUser {
			// Single-user reference with psu-opt processors.
			if err := sweep.add(pt.cfg, "psu-opt+RANDOM", "single-user (psu-opt)", n); err != nil {
				return nil, err
			}
			continue
		}
		for _, name := range strategies {
			if err := sweep.add(pt.cfg, name, name, n); err != nil {
				return nil, err
			}
		}
	}
	return sweep.plan(), nil
}

func plan5(scale Scale, seed int64) (*pointPlan, error) {
	return planBySize("5", scale, seed, []string{
		"psu-noIO+RANDOM", "psu-noIO+LUC", "psu-noIO+LUM",
		"psu-opt+RANDOM", "psu-opt+LUC", "psu-opt+LUM",
	})
}

func plan6(scale Scale, seed int64) (*pointPlan, error) {
	return planBySize("6", scale, seed, []string{
		"MIN-IO", "MIN-IO-SUOPT", "pmu-cpu+RANDOM", "pmu-cpu+LUM", "OPT-IO-CPU",
	})
}

// plan7 uses the memory-bound environment: one tenth of the memory, one
// disk per PE, lower arrival rates; it reports the achieved degrees
// alongside the response times (the paper annotates them on the bars).
func plan7(scale Scale, seed int64) (*pointPlan, error) {
	pts, err := planCompareFigure("7", scale, seed)
	if err != nil {
		return nil, err
	}
	sweep := sizeSweep{fig: "7"}
	for _, pt := range pts {
		for _, name := range []string{"pmu-cpu+LUM", "MIN-IO-SUOPT"} {
			if err := sweep.add(pt.cfg, name, name+" / "+pt.series, int(pt.x)); err != nil {
				return nil, err
			}
		}
	}
	return sweep.plan(), nil
}

// fig8Rates are the per-selectivity arrival rates (QPS/PE at 60 PE) chosen,
// like the paper's, so that at least one resource is highly utilized.
var fig8Rates = map[float64]float64{
	0.001: 0.90,
	0.01:  0.30,
	0.02:  0.16,
	0.05:  0.065,
}

func plan8(scale Scale, seed int64) (*pointPlan, error) {
	strategies := []string{
		"psu-noIO+LUM", "MIN-IO", "MIN-IO-SUOPT", "pmu-cpu+LUM", "OPT-IO-CPU",
	}
	pts, err := planCompareFigure("8", scale, seed)
	if err != nil {
		return nil, err
	}
	// The psu-opt+RANDOM baseline of each selectivity is itself a sweep
	// point: job layout is [base, strategies...] per selectivity, and every
	// row depends on its own point plus the baseline point, so the
	// improvement percentages stream as soon as both are simulated.
	p := &pointPlan{}
	perSel := 1 + len(strategies)
	for si, pt := range pts {
		for _, name := range append([]string{"psu-opt+RANDOM"}, strategies...) {
			j, err := jobFor(pt.cfg, name)
			if err != nil {
				return nil, err
			}
			p.jobs = append(p.jobs, j)
		}
		baseIdx := si * perSel
		for ni, name := range strategies {
			x, xlabel, series := pt.x, pt.xlabel, name
			p.rows = append(p.rows, rowSpec{deps: []int{baseIdx, baseIdx + 1 + ni}, build: func(outs []runOut) (Row, error) {
				base, out := outs[0].res, outs[1]
				res := out.res
				improvement := 0.0
				if base.JoinRT.MeanMS > 0 {
					improvement = 100 * (base.JoinRT.MeanMS - res.JoinRT.MeanMS) / base.JoinRT.MeanMS
				}
				return Row{
					Figure: "8", Series: series, X: x, XLabel: xlabel,
					JoinRTMS: res.JoinRT.MeanMS,
					Extra: map[string]float64{
						"improvement%": improvement,
						"baselineMS":   base.JoinRT.MeanMS,
						"degree":       res.AvgJoinDegree,
					},
					Res: res,
					Rep: out.rep,
				}, nil
			}})
		}
	}
	return p, nil
}

func plan9(scale Scale, seed int64, figure string) (*pointPlan, error) {
	strategies := []string{
		"psu-opt+RANDOM", "psu-noIO+RANDOM", "psu-noIO+LUM", "pmu-cpu+LUM", "OPT-IO-CPU",
	}
	pts, err := planCompareFigure(figure, scale, seed)
	if err != nil {
		return nil, err
	}
	sweep := sizeSweep{fig: figure, post: func(r *Row, res Results) {
		r.Extra["oltpRTms"] = res.OLTPRT.MeanMS
	}}
	for _, pt := range pts {
		for _, name := range strategies {
			if err := sweep.add(pt.cfg, name, name, int(pt.x)); err != nil {
				return nil, err
			}
		}
	}
	return sweep.plan(), nil
}

// sizeRow shapes a "#PE on the x axis" figure point; it is the custom
// sweeps' sweepRow with the figure sweeps' fixed axis label.
func sizeRow(fig, series string, n int, out runOut) Row {
	return sweepRow(fig, series, float64(n), "#PE", out)
}

// FormatRows renders rows as an aligned text table grouped by x value.
func FormatRows(rows []Row) string {
	if len(rows) == 0 {
		return "(no rows)\n"
	}
	var xs []float64
	seen := map[float64]bool{}
	for _, r := range rows {
		if !seen[r.X] {
			seen[r.X] = true
			xs = append(xs, r.X)
		}
	}
	sort.Float64s(xs)
	doc := FigureDoc(rows[0].Figure)
	out := "Figure " + rows[0].Figure
	if doc != "" {
		out += ": " + doc
	}
	out += "\n"
	for _, x := range xs {
		out += fmt.Sprintf("%s = %g\n", rows[0].XLabel, x)
		for _, r := range rows {
			if r.X != x {
				continue
			}
			line := fmt.Sprintf("  %-38s rt=%9.1fms", r.Series, r.JoinRTMS)
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf("  %s=%.1f", k, r.Extra[k])
			}
			if r.Res.JoinRT.N > 0 {
				line += fmt.Sprintf("  (n=%d ±%.0f)", r.Res.JoinRT.N, r.Res.JoinRT.HW95MS)
			}
			if r.Rep != nil {
				line += fmt.Sprintf("  [%d reps: ±%.1fms @%g%%]", r.Rep.Reps, r.Rep.JoinRTMS.HW, 100*r.Rep.Conf)
			}
			if r.Cmp != nil {
				c := r.Cmp.JoinRTMS
				line += fmt.Sprintf("  [%s vs %s: Δ%+.1fms ±%.1f, improv %.1f%% ±%.1f (unpaired ±%.1f)]",
					r.Cmp.StrategyB, r.Cmp.StrategyA, c.Delta.Mean, c.Delta.HW,
					c.Improv.Mean, c.Improv.HW, c.UnpairedImprovHW)
			}
			out += line + "\n"
		}
	}
	return out
}
