package config

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"dynlb/internal/sim"
)

// FaultKind selects what a Fault breaks.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash takes a PE offline at At: work in flight on it aborts,
	// arrivals for it are refused, and the control node marks it
	// unavailable. After Down the PE recovers (Down = 0 keeps it down for
	// the rest of the run).
	FaultCrash FaultKind = iota
	// FaultSlowDisk degrades the PE's disk subsystem: every disk service
	// time is multiplied by Factor for For (For = 0: rest of the run).
	FaultSlowDisk
	// FaultStraggler stretches the PE's CPU: every compute cost is
	// multiplied by Factor for For (For = 0: rest of the run).
	FaultStraggler
)

func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSlowDisk:
		return "slowdisk"
	case FaultStraggler:
		return "straggler"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scheduled failure event. Times are measured from the end of
// the warm-up (the measurement start), like LoadProfile time, so fault
// onsets line up with the metrics windows.
type Fault struct {
	Kind FaultKind    `json:"kind"`
	PE   int          `json:"pe"`
	At   sim.Duration `json:"at"`

	Down   sim.Duration `json:"down,omitempty"`   // Crash: downtime before recovery (0 = never recovers)
	For    sim.Duration `json:"for,omitempty"`    // SlowDisk, Straggler: degradation window (0 = rest of run)
	Factor float64      `json:"factor,omitempty"` // SlowDisk, Straggler: service-time multiplier (>= 1)
}

// Crash returns a crash fault: pe goes down at `at` and recovers after
// `down` (0 = never).
func Crash(pe int, at, down sim.Duration) Fault {
	return Fault{Kind: FaultCrash, PE: pe, At: at, Down: down}
}

// SlowDisk returns a disk-degradation fault: pe's disk service times are
// multiplied by factor during [at, at+for) (for = 0: rest of run).
func SlowDisk(pe int, at, dur sim.Duration, factor float64) Fault {
	return Fault{Kind: FaultSlowDisk, PE: pe, At: at, For: dur, Factor: factor}
}

// Straggler returns a CPU-degradation fault: pe's compute costs are
// multiplied by factor during [at, at+for) (for = 0: rest of run).
func Straggler(pe int, at, dur sim.Duration, factor float64) Fault {
	return Fault{Kind: FaultStraggler, PE: pe, At: at, For: dur, Factor: factor}
}

// Validate checks one fault against the configured PE count.
func (f Fault) Validate(npe int) error {
	if f.PE < 0 || f.PE >= npe {
		return fmt.Errorf("config: fault %s: pe %d outside [0,%d)", f.Kind, f.PE, npe)
	}
	if f.At < 0 {
		return fmt.Errorf("config: fault %s: at %v < 0", f.Kind, time.Duration(f.At))
	}
	switch f.Kind {
	case FaultCrash:
		if f.PE == 0 {
			// PE 0 hosts the control node; the paper's load-balancing
			// question assumes the scheduler itself survives.
			return fmt.Errorf("config: crash fault: pe 0 hosts the control node and cannot crash")
		}
		if f.Down < 0 {
			return fmt.Errorf("config: crash fault: down %v < 0", time.Duration(f.Down))
		}
	case FaultSlowDisk, FaultStraggler:
		if f.For < 0 {
			return fmt.Errorf("config: fault %s: for %v < 0", f.Kind, time.Duration(f.For))
		}
		if f.Factor < 1 {
			return fmt.Errorf("config: fault %s: factor %v < 1", f.Kind, f.Factor)
		}
	default:
		return fmt.Errorf("config: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// String renders the fault in the spec syntax ParseFault accepts.
func (f Fault) String() string {
	d := func(v sim.Duration) string { return time.Duration(v).String() }
	switch f.Kind {
	case FaultCrash:
		return fmt.Sprintf("crash(pe=%d,at=%s,down=%s)", f.PE, d(f.At), d(f.Down))
	case FaultSlowDisk:
		return fmt.Sprintf("slowdisk(pe=%d,at=%s,for=%s,factor=%s)",
			f.PE, d(f.At), d(f.For), strconv.FormatFloat(f.Factor, 'g', -1, 64))
	case FaultStraggler:
		return fmt.Sprintf("straggler(pe=%d,at=%s,for=%s,factor=%s)",
			f.PE, d(f.At), d(f.For), strconv.FormatFloat(f.Factor, 'g', -1, 64))
	default:
		return f.Kind.String()
	}
}

// FaultPlan is the ordered set of failures injected into one run. The zero
// value (no faults) is the fault-free fast path: the engine takes exactly
// the original code path, bit-identical to a config without a plan.
type FaultPlan struct {
	Faults []Fault `json:"faults,omitempty"`
}

// IsEmpty reports whether the plan injects nothing.
func (p FaultPlan) IsEmpty() bool { return len(p.Faults) == 0 }

// Validate checks every fault against the configured PE count.
func (p FaultPlan) Validate(npe int) error {
	for _, f := range p.Faults {
		if err := f.Validate(npe); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan in the spec syntax ParseFaults accepts:
// semicolon-separated fault specs, "" for the empty plan.
func (p FaultPlan) String() string {
	specs := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		specs[i] = f.String()
	}
	return strings.Join(specs, ";")
}

// ParseFault parses one fault spec as the commands' -faults flags take it:
// a kind with optional parenthesized comma-separated key=value parameters.
// Durations use Go syntax ("20s", "500ms"); omitted keys keep the kind's
// defaults.
//
//	crash(pe=3,at=20s,down=10s)
//	slowdisk(pe=2,at=15s,for=20s,factor=4)
//	straggler(pe=1,at=10s,factor=2)
func ParseFault(spec string) (Fault, error) {
	s := strings.TrimSpace(spec)
	kind := s
	params := ""
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return Fault{}, fmt.Errorf("config: fault %q: missing closing parenthesis", spec)
		}
		kind, params = s[:i], s[i+1:len(s)-1]
	}
	var f Fault
	ints := map[string]*int{}
	durs := map[string]*sim.Duration{}
	nums := map[string]*float64{}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "crash":
		f = Crash(1, 20*sim.Second, 10*sim.Second)
		ints["pe"], durs["at"], durs["down"] = &f.PE, &f.At, &f.Down
	case "slowdisk":
		f = SlowDisk(1, 15*sim.Second, 20*sim.Second, 4)
		ints["pe"], durs["at"], durs["for"], nums["factor"] = &f.PE, &f.At, &f.For, &f.Factor
	case "straggler":
		f = Straggler(1, 10*sim.Second, 0, 2)
		ints["pe"], durs["at"], durs["for"], nums["factor"] = &f.PE, &f.At, &f.For, &f.Factor
	default:
		return Fault{}, fmt.Errorf("config: unknown fault kind %q (want crash, slowdisk or straggler)", kind)
	}
	if err := parseParams("fault", spec, f.Kind, params, ints, durs, nums); err != nil {
		return Fault{}, err
	}
	return f, nil
}

// ParseFaults parses a fault plan: semicolon-separated fault specs ("" or
// "none" is the empty plan). Each spec is validated syntactically here;
// PE ranges are checked by Config.Validate, which knows NPE.
//
//	crash(pe=3,at=20s,down=10s);straggler(pe=1,at=10s,factor=2)
func ParseFaults(spec string) (FaultPlan, error) {
	s := strings.TrimSpace(spec)
	if s == "" || strings.EqualFold(s, "none") {
		return FaultPlan{}, nil
	}
	var p FaultPlan
	for _, one := range strings.Split(s, ";") {
		if strings.TrimSpace(one) == "" {
			continue
		}
		f, err := ParseFault(one)
		if err != nil {
			return FaultPlan{}, err
		}
		p.Faults = append(p.Faults, f)
	}
	return p, nil
}
