package dist

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"dynlb"
)

// Wire protocol between coordinator and workers. One POST /v1/jobs request
// carries one wireJob; the reply is its wireResult, matched by ID.
//
// A job travels as its exact simulation inputs: the fully resolved Config
// and the strategy's wire name. Jobs are pure functions of that pair, so
// any worker — or the coordinator itself, when falling back locally —
// computes bit-identical Results.

// wireJob is one physical simulation job.
type wireJob struct {
	// ID is the job's index in the coordinator's plan, echoed back with the
	// result.
	ID int `json:"id"`
	// Config is the fully resolved simulation configuration (base config,
	// axis values, scale, replicate seed all applied by the coordinator's
	// planner).
	Config dynlb.Config `json:"config"`
	// Strategy is the strategy's wire name, reconstructed on the worker via
	// dynlb.StrategyByName.
	Strategy string `json:"strategy"`
}

// wireResult carries one job's outcome.
type wireResult struct {
	ID int `json:"id"`
	// Err is the job's simulation error, if any. Exactly one of Err and
	// Results is meaningful.
	Err string `json:"err,omitempty"`
	// Results is the encoded dynlb.Results. encoding/json round-trips
	// float64 exactly (shortest-form encoding), so this is lossless except
	// for non-finite values, which JSON cannot represent at all —
	// those are carried by NonFinite instead.
	Results json.RawMessage `json:"results,omitempty"`
	// NonFinite patches NaN/±Inf float64 values back into Results after
	// decoding: each entry names a position in the deterministic float64
	// walk order of the Results value (walkFloat64s) and the value to
	// restore there. The corresponding position in Results is encoded as 0.
	NonFinite []nonFinite `json:"non_finite,omitempty"`
}

// nonFinite is one NaN/±Inf patch of a wireResult.
type nonFinite struct {
	Index int    `json:"i"` // position in walkFloat64s order
	Kind  string `json:"k"` // "nan", "+inf" or "-inf"
}

// walkFloat64s visits every float64 in v in a deterministic order — depth
// first, struct fields in declaration order, slice/array elements in index
// order — and calls fn with a running index and an addressable handle to
// each. v must be an addressable reflect.Value (pass the Elem of a
// pointer). Pointers and maps are not traversed; Results and its members
// contain neither, and the walk is only defined for such values.
func walkFloat64s(v reflect.Value, idx *int, fn func(i int, f reflect.Value)) {
	switch v.Kind() {
	case reflect.Float64:
		fn(*idx, v)
		*idx++
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			walkFloat64s(v.Field(i), idx, fn)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			walkFloat64s(v.Index(i), idx, fn)
		}
	}
}

// encodeResults encodes r losslessly: the common all-finite case is a
// plain json.Marshal; non-finite float64s (which JSON rejects) are zeroed
// in a scratch copy and carried as walk-order patches.
func encodeResults(r dynlb.Results) (json.RawMessage, []nonFinite, error) {
	dirty := false
	idx := 0
	walkFloat64s(reflect.ValueOf(&r).Elem(), &idx, func(_ int, f reflect.Value) {
		x := f.Float()
		if math.IsNaN(x) || math.IsInf(x, 0) {
			dirty = true
		}
	})
	if dirty {
		// Scrub a deep copy — Windows is the only reference field.
		r.Windows = append([]dynlb.Window(nil), r.Windows...)
		var patches []nonFinite
		idx = 0
		walkFloat64s(reflect.ValueOf(&r).Elem(), &idx, func(i int, f reflect.Value) {
			x := f.Float()
			switch {
			case math.IsNaN(x):
				patches = append(patches, nonFinite{Index: i, Kind: "nan"})
			case math.IsInf(x, +1):
				patches = append(patches, nonFinite{Index: i, Kind: "+inf"})
			case math.IsInf(x, -1):
				patches = append(patches, nonFinite{Index: i, Kind: "-inf"})
			default:
				return
			}
			f.SetFloat(0)
		})
		raw, err := json.Marshal(r)
		return raw, patches, err
	}
	raw, err := json.Marshal(r)
	return raw, nil, err
}

// decodeResults reverses encodeResults.
func decodeResults(raw json.RawMessage, patches []nonFinite) (dynlb.Results, error) {
	var r dynlb.Results
	if err := json.Unmarshal(raw, &r); err != nil {
		return dynlb.Results{}, err
	}
	if len(patches) == 0 {
		return r, nil
	}
	byIndex := make(map[int]string, len(patches))
	for _, p := range patches {
		byIndex[p.Index] = p.Kind
	}
	applied := 0
	idx := 0
	walkFloat64s(reflect.ValueOf(&r).Elem(), &idx, func(i int, f reflect.Value) {
		kind, ok := byIndex[i]
		if !ok {
			return
		}
		applied++
		switch kind {
		case "nan":
			f.SetFloat(math.NaN())
		case "+inf":
			f.SetFloat(math.Inf(+1))
		case "-inf":
			f.SetFloat(math.Inf(-1))
		}
	})
	if applied != len(byIndex) {
		return dynlb.Results{}, fmt.Errorf("dist: %d non-finite patches out of range (walk has %d float64s)", len(byIndex)-applied, idx)
	}
	return r, nil
}

// portableStrategy reports whether st survives the wire: its Name() must
// reconstruct, via dynlb.StrategyByName, a strategy identical to st. All
// built-in strategies do; user-defined Strategy implementations generally
// do not, and their jobs are pinned to local execution.
func portableStrategy(st dynlb.Strategy) (string, bool) {
	name := st.Name()
	back, err := dynlb.StrategyByName(name)
	if err != nil {
		return name, false
	}
	return name, reflect.DeepEqual(st, back)
}

// encodeJob builds the wire form of plan job i, or reports that the job is
// not portable (non-round-trippable strategy, or a config JSON cannot
// carry, e.g. non-finite floats in user-set fields).
func encodeJob(p *dynlb.Plan, i int) (wireJob, bool) {
	cfg, st := p.Job(i)
	name, ok := portableStrategy(st)
	if !ok {
		return wireJob{}, false
	}
	if _, err := json.Marshal(cfg); err != nil {
		return wireJob{}, false
	}
	return wireJob{ID: i, Config: cfg, Strategy: name}, true
}
