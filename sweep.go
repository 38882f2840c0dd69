package dynlb

import (
	"fmt"
	"strconv"
)

// Figure is the point source reproducing one of the paper's evaluation
// figures (see Figures for the identifiers and FigureDoc for one-line
// descriptions). The figure's points, strategies and row shaping are the
// paper's; WithScale/WithSeed select windows and seeding, and WithCompare
// sweeps the figure's workload axis under two strategies head to head (the
// strategy-sweep figures listed by CompareFigures).
func Figure(fig string) Source { return figureSource{fig: fig} }

type figureSource struct{ fig string }

func (f figureSource) label() string   { return f.fig }
func (f figureSource) baseSeed() int64 { return 1 }

func (f figureSource) plan(scale Scale, _ bool, seed int64) (*pointPlan, error) {
	return planFigure(f.fig, scale, seed)
}

func (f figureSource) comparePlan(scale Scale, _ bool, seed int64) ([]comparePoint, error) {
	return planCompareFigure(f.fig, scale, seed)
}

// Axis is one dimension of a Sweep: a named list of labeled values applied
// to the base configuration. The first axis of a sweep is the x axis — its
// values supply Row.X and its name Row.XLabel; the values of every further
// axis contribute their labels to Row.Series. Build axes directly or with
// the NumAxis/IntAxis helpers.
type Axis struct {
	Name   string
	Values []AxisValue
}

// AxisValue is one value of an axis: the mutation it applies to a point's
// configuration, the numeric coordinate it contributes when its axis is the
// x axis, and the label it contributes to the series name otherwise.
type AxisValue struct {
	Label string        // series fragment (non-x axes); defaults from X in the helpers
	X     float64       // x coordinate (first axis)
	Set   func(*Config) // applies the value; nil means label-only
}

// NumAxis builds an axis over float64 values: each value v becomes an
// AxisValue{X: v, Label: "name=v"} applying set(cfg, v).
func NumAxis(name string, set func(*Config, float64), values ...float64) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		ax.Values = append(ax.Values, AxisValue{
			Label: name + "=" + strconv.FormatFloat(v, 'g', -1, 64),
			X:     v,
			Set:   func(c *Config) { set(c, v) },
		})
	}
	return ax
}

// ProfileAxis builds an axis over load profiles, making non-stationary
// workload shapes a sweep dimension like any other: value i applies
// profiles[i] to the point's Config.Profile, contributes X = i as the
// coordinate when the axis is first, and the profile's spec string
// ("square:factor=4,period=2s,duty=0.5") as its series label otherwise.
func ProfileAxis(name string, profiles ...LoadProfile) Axis {
	ax := Axis{Name: name}
	for i, p := range profiles {
		p := p
		ax.Values = append(ax.Values, AxisValue{
			Label: name + "=" + p.String(),
			X:     float64(i),
			Set:   func(c *Config) { c.Profile = p },
		})
	}
	return ax
}

// FaultAxis builds an axis over fault plans, making failure scenarios a
// sweep dimension like any other: value i applies plans[i] to the point's
// Config.Faults, contributes X = i as the coordinate when the axis is
// first, and the plan's spec string ("crash(pe=3,at=20s,down=10s)", or
// "none" for the empty plan) as its series label otherwise.
func FaultAxis(name string, plans ...FaultPlan) Axis {
	ax := Axis{Name: name}
	for i, fp := range plans {
		fp := fp
		label := fp.String()
		if label == "" {
			label = "none"
		}
		ax.Values = append(ax.Values, AxisValue{
			Label: name + "=" + label,
			X:     float64(i),
			Set:   func(c *Config) { c.Faults = fp },
		})
	}
	return ax
}

// IntAxis is NumAxis over integer values.
func IntAxis(name string, set func(*Config, int), values ...int) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		ax.Values = append(ax.Values, AxisValue{
			Label: name + "=" + strconv.Itoa(v),
			X:     float64(v),
			Set:   func(c *Config) { set(c, v) },
		})
	}
	return ax
}

// Sweep is a user-defined point source: the cross product of its axes
// applied to a base configuration, each point simulated under every listed
// strategy. Any Config dimension can be an axis — system size, arrival
// rate, selectivity, buffer memory, OLTP placement — so custom scenario
// sweeps need no fork of the figure planners:
//
//	sweep := dynlb.Sweep{
//		Base:       cfg,
//		Strategies: []dynlb.Strategy{dynlb.MustStrategy("OPT-IO-CPU")},
//		Axes: []dynlb.Axis{
//			dynlb.IntAxis("disks/PE", func(c *dynlb.Config, d int) { c.DisksPerPE = d }, 1, 2, 5, 10),
//		},
//	}
//	rows, err := dynlb.NewExperiment(sweep, dynlb.WithReps(5)).Run(ctx)
//
// Points enumerate with the first (x) axis outermost, further axes inside
// it, strategies innermost. A sweep with no axes is a single point per
// strategy (X 0): replicating or comparing one configuration is
// NewExperiment over such a sweep with WithSeeds or WithCompare. Under
// WithCompare the strategy dimension is replaced by the compared pair, so
// Strategies must be empty.
type Sweep struct {
	Name       string     // Row.Figure label; default "sweep"
	Base       Config     // windows/seed defaults; overridden by WithScale/WithSeed
	Strategies []Strategy // strategies each point runs under (required unless comparing)
	Axes       []Axis     // Axes[0] is the x axis
}

func (s Sweep) label() string {
	if s.Name == "" {
		return "sweep"
	}
	return s.Name
}

func (s Sweep) baseSeed() int64 { return s.Base.Seed }

// sweepPoint is one resolved point of the cross product.
type sweepPoint struct {
	series string // non-x axis labels, " / "-joined ("" with one axis)
	x      float64
	cfg    Config
}

// points enumerates the axis cross product in deterministic order: first
// axis outermost, later axes nested inside.
func (s Sweep) points(scale Scale, scaleSet bool, seed int64) ([]sweepPoint, string, error) {
	base := s.Base
	if scaleSet {
		base.Warmup, base.MeasureTime = scale.windows()
	}
	base.Seed = seed
	for i, ax := range s.Axes {
		if len(ax.Values) == 0 {
			return nil, "", fmt.Errorf("dynlb: sweep axis %d (%q) has no values", i, ax.Name)
		}
	}
	xlabel := ""
	if len(s.Axes) > 0 {
		xlabel = s.Axes[0].Name
	}
	pts := []sweepPoint{{cfg: base}}
	for ai, ax := range s.Axes {
		expanded := make([]sweepPoint, 0, len(pts)*len(ax.Values))
		for _, pt := range pts {
			for _, v := range ax.Values {
				p := pt
				if v.Set != nil {
					v.Set(&p.cfg)
				}
				if ai == 0 {
					p.x = v.X
				} else if v.Label != "" {
					if p.series != "" {
						p.series += " / "
					}
					p.series += v.Label
				}
				expanded = append(expanded, p)
			}
		}
		pts = expanded
	}
	return pts, xlabel, nil
}

func (s Sweep) plan(scale Scale, scaleSet bool, seed int64) (*pointPlan, error) {
	if len(s.Strategies) == 0 {
		return nil, fmt.Errorf("dynlb: Sweep %q needs at least one strategy (or WithCompare)", s.label())
	}
	for i, st := range s.Strategies {
		if st == nil {
			return nil, fmt.Errorf("dynlb: Sweep %q strategy %d is nil", s.label(), i)
		}
	}
	pts, xlabel, err := s.points(scale, scaleSet, seed)
	if err != nil {
		return nil, err
	}
	label := s.label()
	p := &pointPlan{}
	for _, pt := range pts {
		for _, st := range s.Strategies {
			series := st.Name()
			if pt.series != "" {
				series = pt.series + " / " + series
			}
			idx := len(p.jobs)
			p.jobs = append(p.jobs, runJob{cfg: pt.cfg, st: st})
			x, srs := pt.x, series
			p.rows = append(p.rows, rowSpec{deps: []int{idx}, build: func(outs []runOut) (Row, error) {
				return sweepRow(label, srs, x, xlabel, outs[0]), nil
			}})
		}
	}
	return p, nil
}

func (s Sweep) comparePlan(scale Scale, scaleSet bool, seed int64) ([]comparePoint, error) {
	if len(s.Strategies) > 0 {
		return nil, fmt.Errorf("dynlb: WithCompare replaces the strategy dimension of Sweep %q; leave Strategies empty (got %d)",
			s.label(), len(s.Strategies))
	}
	pts, xlabel, err := s.points(scale, scaleSet, seed)
	if err != nil {
		return nil, err
	}
	out := make([]comparePoint, len(pts))
	for i, pt := range pts {
		out[i] = comparePoint{series: pt.series, x: pt.x, xlabel: xlabel, cfg: pt.cfg}
	}
	return out, nil
}

// sweepRow shapes one sweep point outcome into a Row with the standard
// resource-metric extras (mirroring the figure sweeps' sizeRow).
func sweepRow(label, series string, x float64, xlabel string, out runOut) Row {
	res := out.res
	return Row{
		Figure: label, Series: series, X: x, XLabel: xlabel,
		JoinRTMS: res.JoinRT.MeanMS,
		Extra: map[string]float64{
			"degree": res.AvgJoinDegree,
			"cpu%":   100 * res.CPUUtil,
			"disk%":  100 * res.DiskUtil,
			"mem%":   100 * res.MemUtil,
			"tempIO": float64(res.TempIOPages),
		},
		Res: res,
		Rep: out.rep,
	}
}
