package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dynlb/internal/sim"
)

// ProfileKind selects the shape of a LoadProfile.
type ProfileKind int

// Profile kinds.
const (
	// ProfileConstant is the steady-state workload of the paper's main
	// experiments: arrival rates and skew never change. The zero value of
	// LoadProfile, and bit-identical to a config without a profile.
	ProfileConstant ProfileKind = iota
	// ProfileSquare is a square-wave burst: the arrival rate is multiplied
	// by Factor for the first Duty fraction of every Period, and unscaled
	// for the rest.
	ProfileSquare
	// ProfileDiurnal is a sinusoid: the arrival rate is multiplied by
	// 1 + Amp·sin(2πt/Period), the day/night load curve compressed to
	// simulation scale.
	ProfileDiurnal
	// ProfileDrift leaves arrival rates alone but drifts the redistribution
	// skew linearly: SkewSlope is added per simulated second from the
	// measurement start, so partitioning imbalance grows under the run.
	ProfileDrift
	// ProfileFlash is a flash crowd on a hot partition: inside the window
	// [Start, Start+Duration) the arrival rate is multiplied by Factor and
	// the redistribution skew is raised by HotSkew, concentrating the extra
	// load on the first join processes.
	ProfileFlash
)

func (k ProfileKind) String() string {
	switch k {
	case ProfileConstant:
		return "constant"
	case ProfileSquare:
		return "square"
	case ProfileDiurnal:
		return "diurnal"
	case ProfileDrift:
		return "drift"
	case ProfileFlash:
		return "flash"
	default:
		return fmt.Sprintf("ProfileKind(%d)", int(k))
	}
}

// maxProfileSkew caps the redistribution skew a profile can drive. The
// static RedistributionSkew is validated to [0, 2]; profiles may push past
// that (the point of a hot-partition event) but stay bounded so the
// 1/(i+1)^z shares cannot degenerate to a single processor numerically.
const maxProfileSkew = 4.0

// LoadProfile modulates the workload over simulated time: a rate multiplier
// applied to every open arrival stream (join, scan-class and OLTP
// arrivals), and a time-varying redistribution skew for the join
// partitioning. Profile time is measured from the end of the warm-up (the
// measurement start), so Start/Period phases line up with the metrics
// windows; the warm-up sits at negative profile time, where periodic
// profiles extend cyclically and event profiles (flash) have not begun.
//
// The modulation keeps the event stream deterministic per seed: each
// arrival still consumes exactly one exponential draw (thinning-free
// non-homogeneous Poisson via rate scaling), so a constant profile is
// bit-identical to a config without one, and two profiles differing only
// in shape parameters replay the same underlying random sequence.
//
// The zero value is the constant profile.
type LoadProfile struct {
	Kind ProfileKind `json:"kind"`

	Factor    float64      `json:"factor,omitempty"`     // Square, Flash: rate multiplier in the high phase (> 0)
	Period    sim.Duration `json:"period,omitempty"`     // Square, Diurnal: cycle length (> 0)
	Duty      float64      `json:"duty,omitempty"`       // Square: high-phase fraction of each period, in (0, 1)
	Amp       float64      `json:"amp,omitempty"`        // Diurnal: relative amplitude, in [0, 1)
	SkewSlope float64      `json:"skew_slope,omitempty"` // Drift: skew added per simulated second (>= 0)
	Start     sim.Duration `json:"start,omitempty"`      // Flash: window start, from measurement start (>= 0)
	Duration  sim.Duration `json:"duration,omitempty"`   // Flash: window length (> 0)
	HotSkew   float64      `json:"hot_skew,omitempty"`   // Flash: extra skew inside the window (>= 0)
}

// ConstantProfile returns the steady-state (identity) profile.
func ConstantProfile() LoadProfile { return LoadProfile{} }

// SquareWave returns a square-wave burst profile: rate × factor for the
// first duty fraction of every period.
func SquareWave(factor float64, period sim.Duration, duty float64) LoadProfile {
	return LoadProfile{Kind: ProfileSquare, Factor: factor, Period: period, Duty: duty}
}

// Diurnal returns a sinusoidal profile: rate × (1 + amp·sin(2πt/period)).
func Diurnal(amp float64, period sim.Duration) LoadProfile {
	return LoadProfile{Kind: ProfileDiurnal, Amp: amp, Period: period}
}

// SkewDrift returns a profile drifting the redistribution skew by slope per
// simulated second from the measurement start.
func SkewDrift(slope float64) LoadProfile {
	return LoadProfile{Kind: ProfileDrift, SkewSlope: slope}
}

// FlashCrowd returns a flash-crowd profile: inside [start, start+duration)
// the arrival rate is multiplied by factor and the redistribution skew is
// raised by hotSkew.
func FlashCrowd(start, duration sim.Duration, factor, hotSkew float64) LoadProfile {
	return LoadProfile{Kind: ProfileFlash, Start: start, Duration: duration, Factor: factor, HotSkew: hotSkew}
}

// IsConstant reports whether the profile is the identity (the engine keeps
// its unmodulated arrival path in that case).
func (lp LoadProfile) IsConstant() bool { return lp.Kind == ProfileConstant }

// Validate checks the profile parameters. Every validated profile keeps the
// rate multiplier strictly positive at all times, so interarrival draws
// never divide by zero.
func (lp LoadProfile) Validate() error {
	switch lp.Kind {
	case ProfileConstant:
		return nil
	case ProfileSquare:
		switch {
		case lp.Factor <= 0:
			return fmt.Errorf("config: square profile factor %v <= 0", lp.Factor)
		case lp.Period <= 0:
			return fmt.Errorf("config: square profile period %v <= 0", lp.Period)
		case lp.Duty <= 0 || lp.Duty >= 1:
			return fmt.Errorf("config: square profile duty %v outside (0,1)", lp.Duty)
		}
	case ProfileDiurnal:
		switch {
		case lp.Amp < 0 || lp.Amp >= 1:
			return fmt.Errorf("config: diurnal profile amplitude %v outside [0,1)", lp.Amp)
		case lp.Period <= 0:
			return fmt.Errorf("config: diurnal profile period %v <= 0", lp.Period)
		}
	case ProfileDrift:
		if lp.SkewSlope < 0 {
			return fmt.Errorf("config: drift profile skew slope %v < 0", lp.SkewSlope)
		}
	case ProfileFlash:
		switch {
		case lp.Factor <= 0:
			return fmt.Errorf("config: flash profile factor %v <= 0", lp.Factor)
		case lp.Start < 0:
			return fmt.Errorf("config: flash profile start %v < 0", lp.Start)
		case lp.Duration <= 0:
			return fmt.Errorf("config: flash profile duration %v <= 0", lp.Duration)
		case lp.HotSkew < 0:
			return fmt.Errorf("config: flash profile hot skew %v < 0", lp.HotSkew)
		}
	default:
		return fmt.Errorf("config: unknown profile kind %d", int(lp.Kind))
	}
	return nil
}

// RateMult returns the arrival-rate multiplier at profile time t (measured
// from the measurement start; negative during warm-up). Always > 0 for a
// validated profile.
func (lp LoadProfile) RateMult(t sim.Duration) float64 {
	switch lp.Kind {
	case ProfileSquare:
		if phaseOf(t, lp.Period) < lp.Duty {
			return lp.Factor
		}
		return 1
	case ProfileDiurnal:
		return 1 + lp.Amp*math.Sin(2*math.Pi*phaseOf(t, lp.Period))
	case ProfileFlash:
		if t >= lp.Start && t < lp.Start+lp.Duration {
			return lp.Factor
		}
		return 1
	default:
		return 1
	}
}

// SkewAt returns the redistribution skew at profile time t given the
// configured base skew, clamped to [0, maxProfileSkew].
func (lp LoadProfile) SkewAt(t sim.Duration, base float64) float64 {
	z := base
	switch lp.Kind {
	case ProfileDrift:
		if t > 0 {
			z += lp.SkewSlope * t.Seconds()
		}
	case ProfileFlash:
		if t >= lp.Start && t < lp.Start+lp.Duration {
			z += lp.HotSkew
		}
	}
	if z > maxProfileSkew {
		z = maxProfileSkew
	}
	if z < 0 {
		z = 0
	}
	return z
}

// phaseOf returns the cycle phase of t in [0, 1), extending cyclically for
// negative t (the warm-up side of the time axis).
func phaseOf(t, period sim.Duration) float64 {
	p := t % period
	if p < 0 {
		p += period
	}
	return float64(p) / float64(period)
}

// String renders the profile in the spec syntax ParseProfile accepts.
func (lp LoadProfile) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	d := func(v sim.Duration) string { return time.Duration(v).String() }
	switch lp.Kind {
	case ProfileConstant:
		return "constant"
	case ProfileSquare:
		return fmt.Sprintf("square:factor=%s,period=%s,duty=%s", f(lp.Factor), d(lp.Period), f(lp.Duty))
	case ProfileDiurnal:
		return fmt.Sprintf("diurnal:amp=%s,period=%s", f(lp.Amp), d(lp.Period))
	case ProfileDrift:
		return fmt.Sprintf("drift:slope=%s", f(lp.SkewSlope))
	case ProfileFlash:
		return fmt.Sprintf("flash:start=%s,dur=%s,factor=%s,skew=%s",
			d(lp.Start), d(lp.Duration), f(lp.Factor), f(lp.HotSkew))
	default:
		return lp.Kind.String()
	}
}

// ParseProfile parses a load-profile spec as the commands' -profile flags
// take it: a kind, optionally followed by ":" and comma-separated key=value
// parameters. Durations use Go syntax ("2s", "500ms"); omitted keys keep
// the kind's defaults.
//
//	constant
//	square:factor=4,period=2s,duty=0.5
//	diurnal:amp=0.6,period=10s
//	drift:slope=0.2
//	flash:start=2s,dur=3s,factor=4,skew=1.5
func ParseProfile(spec string) (LoadProfile, error) {
	kind, params, _ := strings.Cut(strings.TrimSpace(spec), ":")
	kind = strings.TrimSpace(kind)
	var lp LoadProfile
	durs := map[string]*sim.Duration{}
	nums := map[string]*float64{}
	switch strings.ToLower(kind) {
	case "constant", "":
		lp = ConstantProfile()
	case "square":
		lp = SquareWave(4, 2*sim.Second, 0.5)
		nums["factor"], nums["duty"], durs["period"] = &lp.Factor, &lp.Duty, &lp.Period
	case "diurnal":
		lp = Diurnal(0.6, 10*sim.Second)
		nums["amp"], durs["period"] = &lp.Amp, &lp.Period
	case "drift":
		lp = SkewDrift(0.2)
		nums["slope"] = &lp.SkewSlope
	case "flash":
		lp = FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1.5)
		nums["factor"], nums["skew"] = &lp.Factor, &lp.HotSkew
		durs["start"], durs["dur"] = &lp.Start, &lp.Duration
	default:
		return LoadProfile{}, fmt.Errorf("config: unknown profile kind %q (want constant, square, diurnal, drift or flash)", kind)
	}
	if err := parseParams("profile", spec, lp.Kind, params, nil, durs, nums); err != nil {
		return LoadProfile{}, err
	}
	if err := lp.Validate(); err != nil {
		return LoadProfile{}, err
	}
	return lp, nil
}

// parseParams sets the fields a spec's comma-separated key=value parameters
// name: keys in ints take strconv.Atoi syntax, keys in durs Go duration
// syntax ("20s", "500ms"), keys in nums strconv.ParseFloat syntax. noun
// ("profile" or "fault") and kind name the spec in errors; a key bound in
// none of the maps is an unknown parameter.
func parseParams(noun, spec string, kind fmt.Stringer, params string,
	ints map[string]*int, durs map[string]*sim.Duration, nums map[string]*float64) error {
	if params == "" {
		return nil
	}
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch {
		case !ok, ints[key] == nil && durs[key] == nil && nums[key] == nil:
			return fmt.Errorf("config: %s %q: unknown parameter %q for kind %s", noun, spec, kv, kind)
		case ints[key] != nil:
			*ints[key], err = strconv.Atoi(val)
		case durs[key] != nil:
			var d time.Duration
			d, err = time.ParseDuration(val)
			*durs[key] = sim.Duration(d)
		default:
			*nums[key], err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return fmt.Errorf("config: %s %q: %s: %v", noun, spec, key, err)
		}
	}
	return nil
}
