package core

import (
	"fmt"
	"math"
	"math/rand"
)

// DegreePolicy determines the degree of join parallelism — the first step
// of an isolated strategy (Section 3.1).
type DegreePolicy interface {
	Name() string
	Degree(q QueryInfo, v *View) int
}

// SelectionPolicy selects k join processors — the second step of an
// isolated strategy (Section 3.2).
type SelectionPolicy interface {
	Name() string
	Select(k int, v *View, rng *rand.Rand) []int
}

// StaticSuOpt is the static policy using the single-user optimum p_su-opt.
type StaticSuOpt struct{}

// Name implements DegreePolicy.
func (StaticSuOpt) Name() string { return "psu-opt" }

// Degree implements DegreePolicy.
func (StaticSuOpt) Degree(q QueryInfo, v *View) int { return clampDegree(q.PsuOpt, v.N()) }

// StaticNoIO is the static policy using p_su-noIO (formula 3.1).
type StaticNoIO struct{}

// Name implements DegreePolicy.
func (StaticNoIO) Name() string { return "psu-noIO" }

// Degree implements DegreePolicy.
func (StaticNoIO) Degree(q QueryInfo, v *View) int { return clampDegree(q.PsuNoIO, v.N()) }

// StaticDegree fixes the degree to an explicit value (used by ablations and
// the Fig. 1 curves).
type StaticDegree struct{ P int }

// Name implements DegreePolicy.
func (s StaticDegree) Name() string { return fmt.Sprintf("p=%d", s.P) }

// Degree implements DegreePolicy.
func (s StaticDegree) Degree(q QueryInfo, v *View) int { return clampDegree(s.P, v.N()) }

// DynamicCPU implements formula 3.2: p_mu-cpu = p_su-opt * (1 - u_cpu^3),
// reducing parallelism mainly above 50% average CPU utilization.
type DynamicCPU struct{}

// Name implements DegreePolicy.
func (DynamicCPU) Name() string { return "pmu-cpu" }

// Degree implements DegreePolicy.
func (DynamicCPU) Degree(q QueryInfo, v *View) int {
	u := v.AvgCPU()
	p := int(math.Round(float64(q.PsuOpt) * (1 - u*u*u)))
	return clampDegree(p, v.N())
}

// RandomSelect picks k distinct PEs uniformly at random — the static
// selection baseline.
type RandomSelect struct{}

// Name implements SelectionPolicy.
func (RandomSelect) Name() string { return "RANDOM" }

// Select implements SelectionPolicy.
func (RandomSelect) Select(k int, v *View, rng *rand.Rand) []int {
	perm := rng.Perm(v.N())
	out := append([]int(nil), perm[:k]...)
	return out
}

// LUC selects the k least utilized CPUs, bumping the view so consecutive
// decisions between utilization reports spread out (the adaptive variation
// of [26]; disable via NoBump for the ablation).
type LUC struct {
	// Bump is the artificial utilization increase per selected PE.
	// Zero means use DefaultCPUBump.
	Bump   float64
	NoBump bool
}

// DefaultCPUBump is the artificial CPU utilization added to a selected PE
// in the control node's view.
const DefaultCPUBump = 0.15

// Name implements SelectionPolicy.
func (LUC) Name() string { return "LUC" }

// Select implements SelectionPolicy.
func (l LUC) Select(k int, v *View, rng *rand.Rand) []int {
	ids := v.byCPUR(rng)[:clampAlive(k, v)]
	out := append([]int(nil), ids...)
	if !l.NoBump {
		bump := l.Bump
		if bump == 0 {
			bump = DefaultCPUBump
		}
		for _, pe := range out {
			v.CPU[pe] += bump
		}
	}
	return out
}

// LUM selects the k PEs with the most available memory, decreasing their
// free memory in the view by the expected working-space demand.
type LUM struct {
	NoBump bool
	// MemPerPE is set by the caller before Select (the expected demand);
	// isolated strategies set it from the query's hash-table size.
	MemPerPE int
}

// Name implements SelectionPolicy.
func (LUM) Name() string { return "LUM" }

// Select implements SelectionPolicy.
func (l LUM) Select(k int, v *View, rng *rand.Rand) []int {
	ids := v.byFreeMemR(rng)[:clampAlive(k, v)]
	out := append([]int(nil), ids...)
	if !l.NoBump {
		for _, pe := range out {
			v.FreeMem[pe] -= min(l.MemPerPE, v.FreeMem[pe])
		}
	}
	return out
}

// Isolated combines a degree policy with a selection policy: the two
// consecutive steps of Section 3's isolated strategies.
type Isolated struct {
	Deg DegreePolicy
	Sel SelectionPolicy
}

// Name implements Strategy.
func (s Isolated) Name() string { return s.Deg.Name() + "+" + s.Sel.Name() }

// Decide implements Strategy.
func (s Isolated) Decide(q QueryInfo, v *View, rng *rand.Rand) Decision {
	k := s.Deg.Degree(q, v)
	mem := memPerPE(q, k)
	sel := s.Sel
	if lum, ok := sel.(LUM); ok {
		lum.MemPerPE = mem
		sel = lum
	}
	pes := sel.Select(k, v, rng)
	return Decision{JoinPEs: pes, MemPerPE: mem}
}

func clampDegree(p, n int) int {
	if p < 1 {
		return 1
	}
	if p > n {
		return n
	}
	return p
}
