package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
	if v, beyond := percentile(xs, 0.95); v != 95 || beyond != 5 {
		t.Errorf("p95 of 1..100 = %v with %d beyond, want 95 with 5", v, beyond)
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{200, 0.95, true}, // rank 190, 10 beyond
		{199, 0.95, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
		{1000, 0.99, true},
		{999, 0.99, false},
	} {
		if got := pct(make([]float64, c.n), c.q).TailMet; got != c.ok {
			t.Errorf("tail rule for p%v of %d samples = %v, want %v", 100*c.q, c.n, got, c.ok)
		}
	}
	if s := pct(xs, 0.95); s.N != 100 || s.TailMet {
		t.Errorf("pct over 100 samples: %+v, want n=100 and the tail rule unmet", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "engine.run", Parent: -1, Start: 0, End: 100},
		{Name: "core.decide", Parent: 0, Start: 10, End: 30},
		{Name: "core.decide", Parent: 0, Start: 20, End: 50},  // overlaps the first child
		{Name: "core.decide", Parent: 0, Start: 90, End: 120}, // runs past its parent
		{Name: "codec.csv", Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 of its 100.
	want := map[string]time.Duration{"engine": 50, "core": 20 + 30 + 30, "codec": 10}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self time of %s = %d, want %d", l, got[l], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if u := unionLen([][2]int64{{5, 8}, {1, 3}, {2, 4}, {8, 9}}); u != 3+4 {
		t.Errorf("unionLen = %d, want 7", u)
	}
}

// TestOpenLoopChargesStall stalls the "server" for the first 100ms: the
// generator must keep sending on schedule, and every operation due during
// the stall must be charged from its due time, not from when it was served.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	gate := make(chan struct{})
	timer := time.AfterFunc(stall, func() { close(gate) })
	defer timer.Stop()
	due := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond, 150 * time.Millisecond}
	samples := openLoop(t.Context(), due, func(int) error {
		<-gate
		return nil
	})
	for i, s := range samples {
		if s.Err != nil {
			t.Fatalf("op %d: %v", i, s.Err)
		}
		if s.Due != due[i] {
			t.Errorf("op %d due %v, want %v", i, s.Due, due[i])
		}
		if late := s.lateness(); late < 0 || late > 30*time.Millisecond {
			t.Errorf("op %d sent %v late; the generator must not wait for the stalled server", i, late)
		}
		if s.Due < stall {
			if min := stall - s.Due; s.latency() < min {
				t.Errorf("op %d latency %v, want at least %v (from its due time)", i, s.latency(), min)
			}
		} else if s.latency() > 30*time.Millisecond {
			t.Errorf("op %d after the stall took %v", i, s.latency())
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON checks that the metrics the program
// prints are exactly those BENCHMARK.json declares, with the same units, and
// that every name is well formed.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, c := range []struct {
		kind     string
		declared []struct{ Name, Unit string }
		printed  []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		units := map[string]string{}
		for _, d := range c.declared {
			units[d.Name] = d.Unit
		}
		if len(c.declared) != len(c.printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", c.kind, len(c.declared), len(c.printed))
		}
		for _, m := range c.printed {
			if !wellFormed.MatchString(m.Name) {
				t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+ of at most 64", c.kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("metric %q printed twice", m.Name)
			}
			seen[m.Name] = true
			unit, ok := units[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: printed metric %q is not in BENCHMARK.json", c.kind, m.Name)
			case unit != m.Unit:
				t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", c.kind, m.Name, m.Unit, unit)
			}
		}
	}
}

func TestBuildMetricsRejectsMissingAndUnknown(t *testing.T) {
	defs := []metricDef{{"a_s", "s"}, {"b_ms", "ms"}}
	if _, err := buildMetrics(defs, map[string]float64{"a_s": 1}); err == nil {
		t.Error("missing metric accepted")
	}
	if _, err := buildMetrics(defs, map[string]float64{"a_s": 1, "b_ms": 2, "c": 3}); err == nil {
		t.Error("undeclared metric accepted")
	}
	m, err := buildMetrics(defs, map[string]float64{"a_s": 1, "b_ms": 2})
	if err != nil || m["b_ms"] != (metricValue{2, "ms"}) {
		t.Errorf("buildMetrics = %v, %v", m, err)
	}
}

func TestDiffFingerprints(t *testing.T) {
	a := []fingerprint{{Unit: 0, Seed: 1, Rows: 3, Events: 10, Joins: 5, CSVSHA256: "x"}, {Unit: 1, Seed: 2, Rows: 3}}
	b := []fingerprint{{Unit: 0, Seed: 1, Rows: 3, Joins: 5, CSVSHA256: "x"}, {Unit: 2, Seed: 3}}
	if d := diffFingerprints(a, b); len(d) != 0 {
		t.Errorf("unobserved events or a unit missing on one side reported as changes: %v", d)
	}
	b[0].CSVSHA256, b[0].Events = "y", 11
	if d := diffFingerprints(a, b); len(d) != 2 {
		t.Errorf("diff = %v, want the events and csv_sha256 changes", d)
	}
}
