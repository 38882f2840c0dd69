package dynlb

import (
	"fmt"
	"strings"

	"dynlb/internal/stats"
)

// DeltaCI compares one metric between a baseline strategy A and a
// challenger B across paired replicates run on identical seeds (common
// random numbers). Delta is the per-replicate difference B − A with its
// paired-t confidence half-width; Improv is the per-replicate relative
// improvement 100·(A − B)/A — positive when B is smaller, i.e. better on
// lower-is-better metrics such as response time. UnpairedDeltaHW and
// UnpairedImprovHW are the half-widths the same replicate count would give
// with independent seeds (the two-sample interval on the same data); with
// the positive correlation common random numbers induce, the paired
// half-widths are the tighter ones. Corr is the sample correlation of the
// pairs — the share of run-to-run variance the shared seeds cancel.
type DeltaCI struct {
	A     float64 `json:"a"`     // across-replicate mean under A
	B     float64 `json:"b"`     // across-replicate mean under B
	Delta MeanCI  `json:"delta"` // B − A, paired-t half-width
	// Improv is the mean per-pair relative improvement 100·(A − B)/A in %,
	// with its paired-t half-width. The ratio is defined iff the pair's A
	// value is non-zero: pairs with A exactly 0 carry no relative
	// information and are excluded from the mean, and a metric whose
	// baseline is zero in every replicate (e.g. OLTP response time without
	// an OLTP workload) reports 0 — never ±Inf or NaN.
	Improv           MeanCI  `json:"improv"`
	UnpairedDeltaHW  float64 `json:"unpaired_delta_hw"`  // independent-seed half-width on B − A
	UnpairedImprovHW float64 `json:"unpaired_improv_hw"` // independent-seed half-width on the improvement
	Corr             float64 `json:"corr"`               // sample correlation of the paired replicates
}

// String renders the compared metric as "A→B Δmean ±hw (improv% ±hw)".
func (d DeltaCI) String() string {
	return fmt.Sprintf("%.2f→%.2f Δ%+.2f ±%.2f (%+.1f%% ±%.1f)",
		d.A, d.B, d.Delta.Mean, d.Delta.HW, d.Improv.Mean, d.Improv.HW)
}

// PairedComparison carries the paired "A vs B" aggregates of every headline
// metric for one configuration or sweep point, mirroring Replication's
// metric set.
type PairedComparison struct {
	StrategyA string  `json:"strategy_a"` // baseline
	StrategyB string  `json:"strategy_b"` // challenger
	Reps      int     `json:"reps"`       // pairs aggregated
	Conf      float64 `json:"conf"`

	JoinRTMS DeltaCI `json:"join_rt_ms"` // join response time, ms
	JoinTPS  DeltaCI `json:"join_tps"`   // join throughput, queries/s
	OLTPRTMS DeltaCI `json:"oltp_rt_ms"` // OLTP response time, ms (zero without OLTP workload)
	CPUUtil  DeltaCI `json:"cpu_util"`   // mean CPU utilization, 0..1
	DiskUtil DeltaCI `json:"disk_util"`  // mean disk utilization, 0..1
	MemUtil  DeltaCI `json:"mem_util"`   // mean memory utilization, 0..1
	Degree   DeltaCI `json:"degree"`     // achieved degree of join parallelism
	TempIO   DeltaCI `json:"temp_io"`    // temporary-file I/O pages in the window
}

// SplitCompare parses an "A,B" comparison spec — two comma-separated
// strategy names, as both commands' -compare flags take — into the
// baseline and challenger names. It trims surrounding spaces and rejects
// anything but exactly two non-empty parts.
func SplitCompare(spec string) (a, b string, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) != 2 {
		return "", "", fmt.Errorf("dynlb: comparison spec %q: want two comma-separated strategy names", spec)
	}
	a, b = strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if a == "" || b == "" {
		return "", "", fmt.Errorf("dynlb: comparison spec %q: want two comma-separated strategy names", spec)
	}
	return a, b, nil
}

// CompareResults computes the paired aggregates of two equal-length result
// slices where runsA[k] and runsB[k] simulated the same replicate seed
// under strategies A and B. Pairs are consumed in slice order, so the
// aggregate is deterministic for a fixed replicate set regardless of how
// many workers produced the runs.
func CompareResults(runsA, runsB []Results, conf float64) (PairedComparison, error) {
	if len(runsA) == 0 {
		return PairedComparison{}, fmt.Errorf("dynlb: CompareResults needs at least one pair")
	}
	if len(runsA) != len(runsB) {
		return PairedComparison{}, fmt.Errorf("dynlb: CompareResults pair mismatch: %d A runs vs %d B runs", len(runsA), len(runsB))
	}
	if err := checkConfidence(conf); err != nil {
		return PairedComparison{}, err
	}
	pc := PairedComparison{
		StrategyA: runsA[0].Strategy,
		StrategyB: runsB[0].Strategy,
		Reps:      len(runsA),
		Conf:      conf,
	}
	pair := func(dst *DeltaCI, get func(*Results) float64) {
		var p stats.Paired
		for k := range runsA {
			p.Add(get(&runsA[k]), get(&runsB[k]))
		}
		*dst = DeltaCI{
			A:                p.MeanA(),
			B:                p.MeanB(),
			Delta:            MeanCI{Mean: p.DeltaMean(), HW: p.DeltaHalfWidth(conf)},
			Improv:           MeanCI{Mean: p.ImprovementMean(), HW: p.ImprovementHalfWidth(conf)},
			UnpairedDeltaHW:  p.UnpairedDeltaHalfWidth(conf),
			UnpairedImprovHW: p.UnpairedImprovementHalfWidth(conf),
			Corr:             p.Correlation(),
		}
	}
	pair(&pc.JoinRTMS, func(r *Results) float64 { return r.JoinRT.MeanMS })
	pair(&pc.JoinTPS, func(r *Results) float64 { return r.JoinTPS })
	pair(&pc.OLTPRTMS, func(r *Results) float64 { return r.OLTPRT.MeanMS })
	pair(&pc.CPUUtil, func(r *Results) float64 { return r.CPUUtil })
	pair(&pc.DiskUtil, func(r *Results) float64 { return r.DiskUtil })
	pair(&pc.MemUtil, func(r *Results) float64 { return r.MemUtil })
	pair(&pc.Degree, func(r *Results) float64 { return r.AvgJoinDegree })
	pair(&pc.TempIO, func(r *Results) float64 { return float64(r.TempIOPages) })
	return pc, nil
}
