package config

import (
	"math"
	"strings"
	"testing"

	"dynlb/internal/sim"
)

func TestProfileRateMult(t *testing.T) {
	sq := SquareWave(4, 2*sim.Second, 0.5)
	cases := []struct {
		name string
		p    LoadProfile
		t    sim.Duration
		want float64
	}{
		{"constant", ConstantProfile(), 5 * sim.Second, 1},
		{"square high phase", sq, 0, 4},
		{"square just inside duty", sq, sim.Second - 1, 4},
		{"square low phase", sq, sim.Second, 1},
		{"square wraps next period", sq, 2 * sim.Second, 4},
		{"square cyclic during warmup", sq, -sim.Second - 1, 4},
		{"drift leaves rate alone", SkewDrift(0.5), 10 * sim.Second, 1},
		{"flash before window", FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1), sim.Second, 1},
		{"flash inside window", FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1), 2 * sim.Second, 4},
		{"flash window end exclusive", FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1), 5 * sim.Second, 1},
		{"flash not during warmup", FlashCrowd(0, 3*sim.Second, 4, 1), -sim.Second, 1},
	}
	for _, c := range cases {
		if got := c.p.RateMult(c.t); got != c.want {
			t.Errorf("%s: RateMult(%v) = %v, want %v", c.name, c.t, got, c.want)
		}
	}

	// Diurnal: quarter period is the sine peak, three quarters the trough.
	di := Diurnal(0.6, 8*sim.Second)
	if got := di.RateMult(2 * sim.Second); math.Abs(got-1.6) > 1e-12 {
		t.Errorf("diurnal peak: RateMult = %v, want 1.6", got)
	}
	if got := di.RateMult(6 * sim.Second); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("diurnal trough: RateMult = %v, want 0.4", got)
	}
	// A validated diurnal profile never reaches rate 0 (Amp < 1).
	for ts := -16 * sim.Second; ts <= 16*sim.Second; ts += 100 * sim.Millisecond {
		if m := di.RateMult(ts); m <= 0 {
			t.Fatalf("diurnal RateMult(%v) = %v <= 0", ts, m)
		}
	}
}

func TestProfileSkewAt(t *testing.T) {
	dr := SkewDrift(0.5)
	if got := dr.SkewAt(-sim.Second, 1); got != 1 {
		t.Errorf("drift during warmup: SkewAt = %v, want base 1", got)
	}
	if got := dr.SkewAt(4*sim.Second, 1); got != 3 {
		t.Errorf("drift at 4s: SkewAt = %v, want 3", got)
	}
	if got := dr.SkewAt(100*sim.Second, 1); got != maxProfileSkew {
		t.Errorf("drift clamp: SkewAt = %v, want %v", got, maxProfileSkew)
	}

	fl := FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1.5)
	if got := fl.SkewAt(sim.Second, 0.5); got != 0.5 {
		t.Errorf("flash before window: SkewAt = %v, want 0.5", got)
	}
	if got := fl.SkewAt(3*sim.Second, 0.5); got != 2 {
		t.Errorf("flash inside window: SkewAt = %v, want 2", got)
	}

	if got := ConstantProfile().SkewAt(10*sim.Second, 1.25); got != 1.25 {
		t.Errorf("constant: SkewAt = %v, want 1.25", got)
	}
}

func TestProfileValidate(t *testing.T) {
	valid := []LoadProfile{
		ConstantProfile(),
		SquareWave(4, 2*sim.Second, 0.5),
		Diurnal(0, 10*sim.Second),
		SkewDrift(0),
		FlashCrowd(0, sim.Second, 2, 0),
	}
	for _, p := range valid {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: unexpected Validate error: %v", p, err)
		}
	}
	invalid := []LoadProfile{
		SquareWave(0, 2*sim.Second, 0.5),
		SquareWave(4, 0, 0.5),
		SquareWave(4, 2*sim.Second, 1),
		Diurnal(1, 10*sim.Second),
		Diurnal(-0.1, 10*sim.Second),
		Diurnal(0.5, 0),
		SkewDrift(-1),
		FlashCrowd(-sim.Second, sim.Second, 2, 0),
		FlashCrowd(0, 0, 2, 0),
		FlashCrowd(0, sim.Second, 0, 0),
		FlashCrowd(0, sim.Second, 2, -1),
		{Kind: ProfileKind(99)},
	}
	for _, p := range invalid {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted an invalid profile", p)
		}
	}
}

func TestParseProfileRoundTrip(t *testing.T) {
	specs := []string{
		"constant",
		"square:factor=4,period=2s,duty=0.5",
		"diurnal:amp=0.6,period=10s",
		"drift:slope=0.2",
		"flash:start=2s,dur=3s,factor=4,skew=1.5",
	}
	for _, spec := range specs {
		p, err := ParseProfile(spec)
		if err != nil {
			t.Fatalf("ParseProfile(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("ParseProfile(%q).String() = %q", spec, got)
		}
		again, err := ParseProfile(p.String())
		if err != nil || again != p {
			t.Errorf("round trip of %q: %+v, %v", spec, again, err)
		}
	}
}

func TestParseProfileDefaultsAndErrors(t *testing.T) {
	// Omitted keys keep the kind's defaults; given keys override.
	p, err := ParseProfile("square:factor=8")
	if err != nil {
		t.Fatal(err)
	}
	if p.Factor != 8 || p.Period != 2*sim.Second || p.Duty != 0.5 {
		t.Errorf("square defaults: %+v", p)
	}
	if p, err = ParseProfile("flash"); err != nil || p.Kind != ProfileFlash {
		t.Errorf("bare kind: %+v, %v", p, err)
	}
	if p, err = ParseProfile(" square : factor=2 , duty=0.25 "); err != nil || p.Factor != 2 || p.Duty != 0.25 {
		t.Errorf("spaced spec: %+v, %v", p, err)
	}

	bad := map[string]string{
		"wave":                 "unknown profile kind",
		"square:speed=3":       "unknown parameter",
		"square:factor":        "unknown parameter", // no "=" value
		"square:period=fast":   "period",
		"square:duty=two":      "duty",
		"square:factor=0":      "<= 0", // parses, fails validation
		"flash:dur=0s":         "<= 0",
		"diurnal:amp=1.5":      "outside [0,1)",
		"drift:slope=-1":       "< 0",
		"constant:factor=2":    "unknown parameter", // constant takes none
		"square:period=-2s":    "<= 0",
		"flash:start=-1s":      "< 0",
		"square:duty=0.5,p=2s": "unknown parameter",
	}
	for spec, frag := range bad {
		if _, err := ParseProfile(spec); err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("ParseProfile(%q): err = %v, want substring %q", spec, err, frag)
		}
	}
}

// TestProfilePeakMult: PeakMult bounds RateMult from above over whole
// periods, and is reached.
func TestProfilePeakMult(t *testing.T) {
	cases := []struct {
		p    LoadProfile
		want float64
	}{
		{ConstantProfile(), 1},
		{SquareWave(4, 2*sim.Second, 0.5), 4},
		{SquareWave(0.25, 2*sim.Second, 0.5), 1},
		{Diurnal(0.6, 8*sim.Second), 1.6},
		{SkewDrift(0.5), 1},
		{FlashCrowd(2*sim.Second, 3*sim.Second, 4, 1), 4},
	}
	for _, c := range cases {
		peak := c.p.PeakMult()
		if math.Abs(peak-c.want) > 1e-12 {
			t.Errorf("%v: PeakMult = %v, want %v", c.p, peak, c.want)
		}
		top := 0.0
		for ts := -8 * sim.Second; ts <= 8*sim.Second; ts += 10 * sim.Millisecond {
			top = math.Max(top, c.p.RateMult(ts))
		}
		if top > peak || math.Abs(top-peak) > 1e-9 {
			t.Errorf("%v: RateMult peaks at %v, PeakMult %v", c.p, top, peak)
		}
	}
}

// TestArrivalRateBound: Validate accepts an arrival stream at 1e9 arrivals
// per simulated second and rejects one whose profile peak lies above.
func TestArrivalRateBound(t *testing.T) {
	c := Default()
	c.NPE = 10
	c.JoinQPSPerPE = 1e8
	if err := c.Validate(); err != nil {
		t.Fatalf("rate at the bound rejected: %v", err)
	}
	c.Profile = Diurnal(0.5, sim.Second)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "JoinQPSPerPE") {
		t.Errorf("1e9/s under a diurnal peak of 1.5: err = %v", err)
	}
}
