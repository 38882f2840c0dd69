package dynlb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"time"

	"dynlb/internal/sim"
)

// WriteRowsJSON writes experiment rows as one pretty-printed JSON array so
// sweep results are machine-consumable without CSV parsing. Unlike the
// positional CSV columns, every row is self-describing: the coordinates and
// headline response time at the top level, the full run Results under
// "results", and — when present — the replicate aggregates under
// "replication", the paired A-vs-B aggregates under "comparison" and the
// windowed transient metrics inside "results" ("windows", "window_ms",
// "peak_window_rt_ms", "recovery_ms" — absent fields are omitted, so
// unreplicated and steady-state rows stay small). An empty row set encodes
// as [], not null.
//
// A NaN or ±Inf metric fails the export with encoding/json's error, and
// nothing is written: the simulation and the row aggregations guard the
// ratios they form, so a non-finite value is a defect to surface, not a
// number to write.
func WriteRowsJSON(out io.Writer, rows []Row) error {
	if rows == nil {
		rows = []Row{}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// MarshalRowJSON encodes one row as compact single-line JSON — the SSE
// data-frame form internal/service streams. Like WriteRowsJSON it fails on a
// NaN or ±Inf metric. The encoding round-trips exactly: every float64 is
// written in its shortest exact form, so a Row decoded from the output
// reproduces the original byte for byte through WriteRowsCSV.
func MarshalRowJSON(r Row) ([]byte, error) {
	return json.Marshal(r)
}

// ExperimentRequest is the wire form of an Experiment: a JSON document
// selecting a point source — one of Figure or Sweep — plus the With*
// options, as submitted to the dynlbd service (POST /v1/experiments) or
// any other out-of-process driver. Zero-valued fields mean "option not
// given", so the document composes exactly like the functional options:
//
//	{"figure": "1c", "scale": "quick"}
//	{"sweep": {"base": {"NPE": 40}, "strategies": ["OPT-IO-CPU"],
//	           "axes": [{"name": "disks/PE", "field": "DisksPerPE", "values": [1, 2, 5, 10]}]},
//	 "reps": 5, "confidence": 0.99}
//
// Workers is a local parallelism hint only — rows are bit-identical at any
// worker count — and is therefore excluded from CacheKey.
type ExperimentRequest struct {
	Figure string     `json:"figure,omitempty"` // paper figure id (Figures lists them)
	Sweep  *SweepSpec `json:"sweep,omitempty"`  // user-defined sweep; mutually exclusive with Figure

	Scale      string   `json:"scale,omitempty"`      // "quick", "normal", "full" (WithScale)
	Seed       *int64   `json:"seed,omitempty"`       // WithSeed; nil keeps the source default
	Reps       int      `json:"reps,omitempty"`       // WithReps (>= 2 adds confidence intervals)
	Seeds      []int64  `json:"seeds,omitempty"`      // WithSeeds; mutually exclusive with Reps
	Confidence float64  `json:"confidence,omitempty"` // WithConfidence; 0 means DefaultConfidence
	Compare    []string `json:"compare,omitempty"`    // [baseline, challenger] strategy names (WithCompare)
	Profile    string   `json:"profile,omitempty"`    // load-profile spec (ParseProfile / WithProfile)
	Faults     string   `json:"faults,omitempty"`     // fault-plan spec (ParseFaults / WithFaults)
	Window     string   `json:"window,omitempty"`     // metrics window width, e.g. "1s" (WithMetricsWindow)
	Runs       bool     `json:"runs,omitempty"`       // WithRuns
	Workers    int      `json:"workers,omitempty"`    // WithWorkers hint; never changes rows
}

// SweepSpec is the wire form of a Sweep: the base configuration (absent
// fields keep their DefaultConfig values), the strategy names, and the
// axes. Decoding always materializes Base, so a decoded spec is
// self-contained.
type SweepSpec struct {
	Name       string     `json:"name,omitempty"`
	Base       *Config    `json:"base,omitempty"`
	Strategies []string   `json:"strategies,omitempty"`
	Axes       []AxisSpec `json:"axes,omitempty"`
}

// UnmarshalJSON decodes a sweep spec with DefaultConfig as the base-config
// baseline: a request only states the fields it changes, exactly like
// mutating DefaultConfig() in code.
func (s *SweepSpec) UnmarshalJSON(data []byte) error {
	type plain SweepSpec // drops the method, avoiding recursion
	base := DefaultConfig()
	p := plain{Base: &base}
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*s = SweepSpec(p)
	return nil
}

// AxisSpec is the wire form of an Axis: either a numeric axis over a named
// Config field (NumAxis/IntAxis) or a profile axis over load-profile specs
// (ProfileAxis). Field is a dotted path of exported Config field names —
// "NPE", "JoinQPSPerPE", "OLTP.TPSPerNode", "Disk.CacheSize" — resolving
// to an integer, float or Duration field (Duration values are given in
// seconds).
type AxisSpec struct {
	Name     string    `json:"name"`
	Field    string    `json:"field,omitempty"`
	Values   []float64 `json:"values,omitempty"`
	Profiles []string  `json:"profiles,omitempty"` // ParseProfile specs; mutually exclusive with Field
}

// axis compiles the spec into an executable Axis, validating the field
// path and value domain up front so a bad request fails at build time, not
// mid-sweep.
func (a AxisSpec) axis() (Axis, error) {
	if a.Name == "" {
		return Axis{}, fmt.Errorf("dynlb: axis needs a name")
	}
	if len(a.Profiles) > 0 {
		if a.Field != "" || len(a.Values) > 0 {
			return Axis{}, fmt.Errorf("dynlb: axis %q mixes profiles with field/values", a.Name)
		}
		profiles := make([]LoadProfile, len(a.Profiles))
		for i, spec := range a.Profiles {
			p, err := ParseProfile(spec)
			if err != nil {
				return Axis{}, fmt.Errorf("dynlb: axis %q: %w", a.Name, err)
			}
			profiles[i] = p
		}
		return ProfileAxis(a.Name, profiles...), nil
	}
	if a.Field == "" || len(a.Values) == 0 {
		return Axis{}, fmt.Errorf("dynlb: axis %q needs a field and values (or profiles)", a.Name)
	}
	scratch := DefaultConfig()
	kind, err := configFieldKind(&scratch, a.Field)
	if err != nil {
		return Axis{}, fmt.Errorf("dynlb: axis %q: %w", a.Name, err)
	}
	if kind == reflect.Int || kind == reflect.Int64 {
		for _, v := range a.Values {
			if v != math.Trunc(v) {
				return Axis{}, fmt.Errorf("dynlb: axis %q: value %v for integer field %s", a.Name, v, a.Field)
			}
		}
	}
	field := a.Field
	return NumAxis(a.Name, func(c *Config, v float64) { setConfigField(c, field, v) }, a.Values...), nil
}

// durationType is the reflect.Type of sim.Duration, which JSON axes set in
// seconds rather than raw nanoseconds.
var durationType = reflect.TypeOf(sim.Duration(0))

// configFieldKind resolves a dotted field path on Config and reports the
// kind an axis may set (Int/Int64 for integer fields — Duration included —
// Float64 otherwise).
func configFieldKind(c *Config, path string) (reflect.Kind, error) {
	v, err := configField(c, path)
	if err != nil {
		return 0, err
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		if v.Type() == durationType {
			return reflect.Float64, nil // set in (possibly fractional) seconds
		}
		return v.Kind(), nil
	case reflect.Float64:
		return reflect.Float64, nil
	default:
		return 0, fmt.Errorf("field %s is a %s, not a numeric axis target", path, v.Type())
	}
}

// configField walks a dotted path of exported field names from Config.
func configField(c *Config, path string) (reflect.Value, error) {
	v := reflect.ValueOf(c).Elem()
	for _, name := range strings.Split(path, ".") {
		if v.Kind() != reflect.Struct {
			return reflect.Value{}, fmt.Errorf("field %s does not resolve to a struct field", path)
		}
		f := v.FieldByName(name)
		if !f.IsValid() {
			return reflect.Value{}, fmt.Errorf("unknown Config field %q in path %s", name, path)
		}
		v = f
	}
	return v, nil
}

// setConfigField applies one axis value; the path was validated when the
// axis compiled, so resolution cannot fail here.
func setConfigField(c *Config, path string, val float64) {
	v, err := configField(c, path)
	if err != nil {
		return
	}
	switch {
	case v.Type() == durationType:
		v.SetInt(int64(sim.FromSeconds(val)))
	case v.Kind() == reflect.Int || v.Kind() == reflect.Int64:
		v.SetInt(int64(val))
	case v.Kind() == reflect.Float64:
		v.SetFloat(val)
	}
}

// Experiment compiles the request into a runnable Experiment, validating
// the source, strategy names and option values. The result is equivalent
// to building the same Sweep/Figure and options in code: bit-identical
// rows at any worker count.
func (r *ExperimentRequest) Experiment() (*Experiment, error) {
	src, err := r.source()
	if err != nil {
		return nil, err
	}
	var opts []Option
	if r.Scale != "" {
		sc, err := ParseScale(r.Scale)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithScale(sc))
	}
	if r.Seed != nil {
		opts = append(opts, WithSeed(*r.Seed))
	}
	if r.Reps != 0 {
		opts = append(opts, WithReps(r.Reps))
	}
	if len(r.Seeds) > 0 {
		opts = append(opts, WithSeeds(r.Seeds...))
	}
	if r.Confidence != 0 {
		opts = append(opts, WithConfidence(r.Confidence))
	}
	if len(r.Compare) > 0 {
		if len(r.Compare) != 2 {
			return nil, fmt.Errorf("dynlb: compare wants [baseline, challenger], got %d names", len(r.Compare))
		}
		sa, err := StrategyByName(r.Compare[0])
		if err != nil {
			return nil, err
		}
		sb, err := StrategyByName(r.Compare[1])
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithCompare(sa, sb))
	}
	if r.Profile != "" {
		p, err := ParseProfile(r.Profile)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithProfile(p))
	}
	if r.Faults != "" {
		fp, err := ParseFaults(r.Faults)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithFaults(fp))
	}
	if r.Window != "" {
		d, err := time.ParseDuration(r.Window)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("dynlb: window %q: want a positive duration like 1s or 500ms", r.Window)
		}
		opts = append(opts, WithMetricsWindow(Duration(d)))
	}
	if r.Runs {
		opts = append(opts, WithRuns())
	}
	if r.Workers != 0 {
		opts = append(opts, WithWorkers(r.Workers))
	}
	exp := NewExperiment(src, opts...)
	// Surface plan-time errors (unknown figure, empty axis, bad strategy
	// name) at request validation, not first execution.
	if _, err := exp.Plan(); err != nil {
		return nil, err
	}
	return exp, nil
}

// source builds the request's point source.
func (r *ExperimentRequest) source() (Source, error) {
	switch {
	case r.Figure != "" && r.Sweep != nil:
		return nil, fmt.Errorf("dynlb: request gives both figure and sweep; pick one")
	case r.Figure != "":
		return Figure(r.Figure), nil
	case r.Sweep != nil:
		return r.Sweep.sweep()
	default:
		return nil, fmt.Errorf("dynlb: request needs a figure or a sweep")
	}
}

// sweep compiles the spec into a Sweep.
func (s *SweepSpec) sweep() (Sweep, error) {
	sw := Sweep{Name: s.Name}
	if s.Base != nil {
		sw.Base = *s.Base
	} else {
		sw.Base = DefaultConfig()
	}
	for _, name := range s.Strategies {
		st, err := StrategyByName(name)
		if err != nil {
			return Sweep{}, err
		}
		sw.Strategies = append(sw.Strategies, st)
	}
	for _, as := range s.Axes {
		ax, err := as.axis()
		if err != nil {
			return Sweep{}, err
		}
		sw.Axes = append(sw.Axes, ax)
	}
	return sw, nil
}

// CacheKey returns the canonical form of the request — the result-cache
// key of the dynlbd service. Every field that can change a row is resolved
// to its effective value (scale, seed, reps, confidence, the full base
// config), so two spellings of the same experiment collide; Workers is
// dropped because rows are bit-identical at any parallelism.
func (r *ExperimentRequest) CacheKey() (string, error) {
	n := *r
	n.Workers = 0
	if n.Reps == 0 && len(n.Seeds) == 0 {
		n.Reps = 1
	}
	if n.Confidence == 0 {
		n.Confidence = DefaultConfidence
	}
	if n.Sweep != nil {
		sw := *n.Sweep
		if sw.Base == nil {
			base := DefaultConfig()
			sw.Base = &base
		}
		n.Sweep = &sw
	}
	if n.Seed == nil {
		seed := int64(1) // Figure default
		if n.Sweep != nil {
			seed = n.Sweep.Base.Seed
		}
		n.Seed = &seed
	}
	if n.Scale == "" && n.Figure != "" {
		n.Scale = ScaleNormal.String()
	}
	key, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	return string(key), nil
}
