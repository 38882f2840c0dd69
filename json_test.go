package dynlb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestWriteRowsJSONShape: the JSON export is a self-describing array —
// coordinates and headline metrics at the top level, full Results nested,
// replication/comparison blocks only when present.
func TestWriteRowsJSONShape(t *testing.T) {
	rows := []Row{
		{
			Figure: "6", Series: "OPT-IO-CPU", X: 40, XLabel: "#PE",
			JoinRTMS: 123.5,
			Extra:    map[string]float64{"degree": 12.5},
			Res:      Results{Strategy: "OPT-IO-CPU", NPE: 40, JoinTPS: 9.5},
			Rep: &Replication{
				Reps: 3, Conf: 0.95,
				JoinRTMS: MeanCI{Mean: 123.5, HW: 4.25},
			},
		},
		{Figure: "6", Series: "plain", X: 80, XLabel: "#PE"},
	}
	var buf bytes.Buffer
	if err := WriteRowsJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d rows, want 2", len(decoded))
	}
	r0 := decoded[0]
	if r0["figure"] != "6" || r0["series"] != "OPT-IO-CPU" || r0["x"] != 40.0 || r0["join_rt_ms"] != 123.5 {
		t.Errorf("top-level fields wrong: %v", r0)
	}
	res, ok := r0["results"].(map[string]any)
	if !ok || res["strategy"] != "OPT-IO-CPU" || res["npe"] != 40.0 || res["join_tps"] != 9.5 {
		t.Errorf("nested results wrong: %v", r0["results"])
	}
	rep, ok := r0["replication"].(map[string]any)
	if !ok || rep["reps"] != 3.0 {
		t.Errorf("replication block wrong: %v", r0["replication"])
	}
	ci, ok := rep["join_rt_ms"].(map[string]any)
	if !ok || ci["mean"] != 123.5 || ci["hw"] != 4.25 {
		t.Errorf("replication CI wrong: %v", rep["join_rt_ms"])
	}
	// Absent blocks are omitted, not null.
	r1 := decoded[1]
	for _, absent := range []string{"replication", "comparison", "extra"} {
		if _, present := r1[absent]; present {
			t.Errorf("unreplicated row serialized %q", absent)
		}
	}
}

// TestWriteRowsJSONEmpty: zero rows encode as an empty array, the shape
// downstream parsers expect, never null.
func TestWriteRowsJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRowsJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(buf.String()); got != "[]" {
		t.Errorf("empty rows encoded as %q, want []", got)
	}
}

// TestWriteRowsJSONRejectsNonFinite: a NaN or ±Inf metric anywhere in a
// row — top level, Extra, a window, behind the Cmp pointer — fails the
// export with encoding/json's error and writes nothing.
func TestWriteRowsJSONRejectsNonFinite(t *testing.T) {
	inf := math.Inf(1)
	cases := map[string]Row{
		"top level": {JoinRTMS: math.NaN()},
		"extra":     {Extra: map[string]float64{"ratio": inf}},
		"window":    {Res: Results{Windows: []Window{{RTMeanMS: math.Inf(-1)}}}},
		"cmp":       {Cmp: &PairedComparison{JoinRTMS: DeltaCI{Improv: MeanCI{Mean: inf}}}},
	}
	for name, row := range cases {
		var buf bytes.Buffer
		err := WriteRowsJSON(&buf, []Row{{Figure: "ok"}, row})
		var uve *json.UnsupportedValueError
		if !errors.As(err, &uve) {
			t.Errorf("%s: err = %v, want *json.UnsupportedValueError", name, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: failed export wrote %d bytes", name, buf.Len())
		}
	}
}

// TestMarshalRowJSONRoundTrip: the SSE row frame round-trips exactly — a
// Row decoded from MarshalRowJSON output reproduces every float bit for
// bit, which is what makes server-collected CSV byte-identical to the
// library's.
func TestMarshalRowJSONRoundTrip(t *testing.T) {
	row := Row{
		Figure: "1c", Series: "psu-opt+LUM", X: 0.1 + 0.2, XLabel: "degree",
		JoinRTMS: 1234.5678901234567,
		Extra:    map[string]float64{"cpu%": 73.00000000000001, "tempIO": 1e-17},
		Res: Results{
			Strategy: "psu-opt+LUM", NPE: 80,
			JoinRT:  Summary{N: 321, MeanMS: 1234.5678901234567, P95MS: 2000.25, HW95MS: 12.125},
			JoinTPS: 9.869604401089358,
		},
		Rep: &Replication{Reps: 3, Conf: 0.95, JoinRTMS: MeanCI{Mean: 1.0 / 3.0, HW: 2.0 / 7.0}},
	}
	b, err := MarshalRowJSON(row)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(b, '\n') {
		t.Fatalf("SSE data frame contains a newline: %s", b)
	}
	var back Row
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(row, back) {
		t.Errorf("row did not round-trip:\n got %+v\nwant %+v", back, row)
	}

	// A non-finite metric fails the frame, like WriteRowsJSON.
	row.Extra = map[string]float64{"bad": math.Inf(1)}
	var uve *json.UnsupportedValueError
	if _, err := MarshalRowJSON(row); !errors.As(err, &uve) {
		t.Errorf("non-finite row: err = %v, want *json.UnsupportedValueError", err)
	}
}

// TestExperimentRequestValidation: malformed request documents fail at
// build time with a diagnosis, before any simulation starts.
func TestExperimentRequestValidation(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no source", `{}`, "needs a figure or a sweep"},
		{"both sources", `{"figure": "6", "sweep": {"strategies": ["MIN-IO"]}}`, "pick one"},
		{"unknown figure", `{"figure": "17"}`, "unknown figure"},
		{"bad scale", `{"figure": "6", "scale": "warp"}`, "unknown scale"},
		{"bad strategy", `{"sweep": {"strategies": ["NOPE"]}}`, "unknown strategy"},
		{"axis unknown field", `{"sweep": {"strategies": ["MIN-IO"],
			"axes": [{"name": "x", "field": "NoSuchKnob", "values": [1]}]}}`, "unknown Config field"},
		{"axis non-numeric field", `{"sweep": {"strategies": ["MIN-IO"],
			"axes": [{"name": "x", "field": "OLTP", "values": [1]}]}}`, "not a numeric axis target"},
		{"axis fractional int", `{"sweep": {"strategies": ["MIN-IO"],
			"axes": [{"name": "x", "field": "NPE", "values": [2.5]}]}}`, "integer field"},
		{"axis mixes modes", `{"sweep": {"strategies": ["MIN-IO"],
			"axes": [{"name": "x", "field": "NPE", "values": [2], "profiles": ["square:factor=2,period=1s,duty=0.5"]}]}}`, "mixes profiles"},
		{"axis without values", `{"sweep": {"strategies": ["MIN-IO"], "axes": [{"name": "x"}]}}`, "needs a field and values"},
		{"axis without name", `{"sweep": {"strategies": ["MIN-IO"], "axes": [{"field": "NPE", "values": [2]}]}}`, "needs a name"},
		{"bad profile axis", `{"sweep": {"strategies": ["MIN-IO"],
			"axes": [{"name": "p", "profiles": ["wavy:amp=2"]}]}}`, "profile"},
		{"one compare name", `{"figure": "6", "compare": ["MIN-IO"]}`, "compare wants"},
		{"bad window", `{"figure": "6", "window": "soon"}`, "window"},
		{"bad request profile", `{"figure": "6", "profile": "bursty"}`, "profile"},
		{"reps and seeds", `{"figure": "6", "reps": 3, "seeds": [1, 2]}`, "mutually exclusive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var req ExperimentRequest
			if err := json.Unmarshal([]byte(tc.doc), &req); err != nil {
				t.Fatalf("decode: %v", err)
			}
			_, err := req.Experiment()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestExperimentRequestMatchesLibrary: a request document and the
// equivalent in-code Sweep + options produce bit-identical rows — the
// server ≡ library contract the dynlbd CI job enforces end to end.
func TestExperimentRequestMatchesLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	doc := `{
		"sweep": {
			"name": "tiny",
			"base": {"NPE": 8, "JoinQPSPerPE": 0.1},
			"strategies": ["psu-opt+RANDOM", "OPT-IO-CPU"],
			"axes": [{"name": "#PE", "field": "NPE", "values": [8, 10]}]
		},
		"scale": "quick",
		"reps": 2
	}`
	var req ExperimentRequest
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	exp, err := req.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	got, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	base := DefaultConfig()
	base.NPE = 8
	base.JoinQPSPerPE = 0.1
	sweep := Sweep{
		Name:       "tiny",
		Base:       base,
		Strategies: []Strategy{MustStrategy("psu-opt+RANDOM"), MustStrategy("OPT-IO-CPU")},
		Axes:       []Axis{IntAxis("#PE", func(c *Config, n int) { c.NPE = n }, 8, 10)},
	}
	want, err := NewExperiment(sweep, WithScale(ScaleQuick), WithReps(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("request rows differ from library rows:\n got %+v\nwant %+v", got, want)
	}
}

// TestExperimentRequestDurationAxis: axes over Duration fields take their
// values in seconds, not raw nanoseconds.
func TestExperimentRequestDurationAxis(t *testing.T) {
	var req ExperimentRequest
	doc := `{"sweep": {"strategies": ["MIN-IO"],
		"axes": [{"name": "report", "field": "ReportInterval", "values": [0.25, 0.5]}]}}`
	if err := json.Unmarshal([]byte(doc), &req); err != nil {
		t.Fatal(err)
	}
	exp, err := req.Experiment()
	if err != nil {
		t.Fatal(err)
	}
	p, err := exp.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if p.NumJobs() != 2 {
		t.Fatalf("NumJobs %d, want 2", p.NumJobs())
	}
	if got := p.jobs[0].cfg.ReportInterval; got != Seconds(0.25) {
		t.Errorf("axis value 0.25 set ReportInterval %v, want %v", got, Seconds(0.25))
	}
	if got := p.jobs[1].cfg.ReportInterval; got != Seconds(0.5) {
		t.Errorf("axis value 0.5 set ReportInterval %v, want %v", got, Seconds(0.5))
	}
}

// TestCacheKeyCanonicalization: the cache key resolves every defaulted
// field, so different spellings of the same experiment collide while any
// row-changing difference separates — and the parallelism hint never
// matters.
func TestCacheKeyCanonicalization(t *testing.T) {
	key := func(doc string) string {
		t.Helper()
		var req ExperimentRequest
		if err := json.Unmarshal([]byte(doc), &req); err != nil {
			t.Fatal(err)
		}
		k, err := req.CacheKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	same := [][2]string{
		{`{"figure": "1c"}`,
			`{"figure": "1c", "scale": "normal", "seed": 1, "reps": 1, "confidence": 0.95, "workers": 7}`},
		{`{"sweep": {"strategies": ["MIN-IO"]}}`,
			`{"sweep": {"strategies": ["MIN-IO"]}, "workers": 3}`},
	}
	for i, pair := range same {
		if key(pair[0]) != key(pair[1]) {
			t.Errorf("case %d: equivalent requests got different cache keys:\n %s\n %s",
				i, key(pair[0]), key(pair[1]))
		}
	}
	distinct := []string{
		`{"figure": "1c"}`,
		`{"figure": "1c", "scale": "quick"}`,
		`{"figure": "1c", "seed": 2}`,
		`{"figure": "1c", "reps": 3}`,
		`{"figure": "1c", "confidence": 0.99}`,
		`{"figure": "1c", "window": "1s"}`,
		`{"figure": "6"}`,
		`{"sweep": {"strategies": ["MIN-IO"]}}`,
		`{"sweep": {"base": {"NPE": 16}, "strategies": ["MIN-IO"]}}`,
	}
	seen := map[string]string{}
	for _, doc := range distinct {
		k := key(doc)
		if prev, dup := seen[k]; dup {
			t.Errorf("requests %s and %s share a cache key", prev, doc)
		}
		seen[k] = doc
	}
	// A code-built request with no Sweep.Base canonicalizes like the
	// decoded form, which always materializes the default base.
	bare := &ExperimentRequest{Sweep: &SweepSpec{Strategies: []string{"MIN-IO"}}}
	k, err := bare.CacheKey()
	if err != nil {
		t.Fatal(err)
	}
	if k != key(`{"sweep": {"strategies": ["MIN-IO"]}}`) {
		t.Errorf("nil-base sweep key differs from decoded default-base key")
	}
}
