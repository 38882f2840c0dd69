package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleMean(t *testing.T) {
	s := NewSample("rt")
	for _, v := range []float64{1, 2, 3, 4} {
		s.Add(v)
	}
	if s.Mean() != 2.5 {
		t.Errorf("mean=%v, want 2.5", s.Mean())
	}
	if s.N() != 4 {
		t.Errorf("n=%d, want 4", s.N())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample("e")
	if s.Mean() != 0 || s.Stddev() != 0 || s.Percentile(50) != 0 || s.HalfWidth95() != 0 {
		t.Error("empty sample should report zeros")
	}
}

func TestSampleStddev(t *testing.T) {
	s := NewSample("sd")
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	// known population sd = 2; sample sd = sqrt(32/7)
	want := math.Sqrt(32.0 / 7.0)
	if math.Abs(s.Stddev()-want) > 1e-9 {
		t.Errorf("sd=%v, want %v", s.Stddev(), want)
	}
}

func TestSamplePercentiles(t *testing.T) {
	s := NewSample("p")
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("p50=%v, want 50", got)
	}
	if got := s.Percentile(95); got != 95 {
		t.Errorf("p95=%v, want 95", got)
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSamplePercentileSingleton(t *testing.T) {
	s := NewSample("one")
	s.Add(7)
	for _, p := range []float64{0, 50, 100} {
		if s.Percentile(p) != 7 {
			t.Errorf("p%v of singleton = %v, want 7", p, s.Percentile(p))
		}
	}
}

func TestHalfWidthShrinksWithN(t *testing.T) {
	small, big := NewSample("s"), NewSample("b")
	vals := []float64{1, 5, 3, 7, 2, 8, 4, 6}
	for _, v := range vals {
		small.Add(v)
	}
	for i := 0; i < 10; i++ {
		for _, v := range vals {
			big.Add(v)
		}
	}
	if big.HalfWidth95() >= small.HalfWidth95() {
		t.Errorf("half-width did not shrink: %v vs %v", big.HalfWidth95(), small.HalfWidth95())
	}
}

// Property: mean is bounded by [min, max] and stddev is non-negative.
func TestQuickMeanBounds(t *testing.T) {
	f := func(vals []float64) bool {
		s := NewSample("q")
		ok := false
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
				continue
			}
			s.Add(v)
			ok = true
		}
		if !ok {
			return true
		}
		m := s.Mean()
		return m >= s.Min()-1e-6 && m <= s.Max()+1e-6 && s.Stddev() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(vals []uint16, a, b uint8) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSample("q")
		for _, v := range vals {
			s.Add(float64(v))
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Percentile(pa) <= s.Percentile(pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
