package dist

import (
	"encoding/json"
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
	// Err is the job's simulation error, if any, or the error encoding its
	// Results. Exactly one of Err and Results is meaningful.
	Err string `json:"err,omitempty"`
	// Results is the job's dynlb.Results as JSON. encoding/json round-trips
	// finite float64s exactly (shortest-form encoding); a result holding a
	// NaN or ±Inf, which JSON cannot carry, fails to encode and arrives as
	// Err instead, so the coordinator runs that job itself.
	Results json.RawMessage `json:"results,omitempty"`
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
