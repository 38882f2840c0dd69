package dynlb

import (
	"fmt"
	"math"

	"dynlb/internal/stats"
)

// DefaultConfidence is the confidence level of replicated-run intervals
// when no explicit level is given.
const DefaultConfidence = 0.95

// MeanCI is one replicate-aggregated metric: the across-replicate mean and
// the half-width of its two-sided Student-t confidence interval at the
// aggregation's confidence level (0 when fewer than two replicates).
type MeanCI struct {
	Mean float64 `json:"mean"`
	HW   float64 `json:"hw"`
}

// String renders the metric as "mean ±hw".
func (m MeanCI) String() string { return fmt.Sprintf("%.2f ±%.2f", m.Mean, m.HW) }

// Replication summarizes the spread of every reported metric across the
// replicated runs of one sweep point or configuration.
type Replication struct {
	Reps int     `json:"reps"` // replicates aggregated
	Conf float64 `json:"conf"` // confidence level of the half-widths (e.g. 0.95)

	JoinRTMS MeanCI `json:"join_rt_ms"` // join response time, ms
	JoinTPS  MeanCI `json:"join_tps"`   // join throughput, queries/s
	OLTPRTMS MeanCI `json:"oltp_rt_ms"` // OLTP response time, ms (zero without OLTP workload)
	CPUUtil  MeanCI `json:"cpu_util"`   // mean CPU utilization, 0..1
	DiskUtil MeanCI `json:"disk_util"`  // mean disk utilization, 0..1
	MemUtil  MeanCI `json:"mem_util"`   // mean memory utilization, 0..1
	Degree   MeanCI `json:"degree"`     // achieved degree of join parallelism
	TempIO   MeanCI `json:"temp_io"`    // temporary-file I/O pages in the window
}

// ReplicateSeeds returns the standard replicate seed stream for a base
// seed: replicate 0 is the base itself (so replicated runs extend the
// unreplicated one), replicates k >= 1 are drawn from a splitmix64 stream
// seeded at base. The derivation is a pure function of (base, k), so
// replicate sets are identical regardless of worker count or scheduling.
func ReplicateSeeds(base int64, reps int) []int64 { return stats.ReplicateSeeds(base, reps) }

// AggregateResults condenses replicated runs of one configuration into a
// field-wise mean Results (integer counts rounded to nearest) and the
// Replication carrying confidence half-widths at level conf. Runs are
// consumed in slice order, so the aggregate is deterministic for a fixed
// replicate set. An empty slice yields zero values.
func AggregateResults(runs []Results, conf float64) (Results, Replication) {
	if len(runs) == 0 {
		return Results{}, Replication{Conf: conf}
	}
	mean := runs[0] // identification fields (Strategy, NPE, PsuOpt, PsuNoIO) are per-config constants

	meanF := func(get func(*Results) float64) float64 {
		var w stats.Welford
		for i := range runs {
			w.Add(get(&runs[i]))
		}
		return w.Mean()
	}
	meanI := func(get func(*Results) float64) int64 {
		return int64(math.Round(meanF(get)))
	}
	// The headline metrics feed both the mean Results and the Replication
	// half-widths from a single accumulation, so the two can't drift apart.
	agg := func(dst *float64, get func(*Results) float64) MeanCI {
		var w stats.Welford
		for i := range runs {
			w.Add(get(&runs[i]))
		}
		*dst = w.Mean()
		return MeanCI{Mean: w.Mean(), HW: w.HalfWidth(conf)}
	}
	meanSummary := func(get func(*Results) *Summary) Summary {
		return Summary{
			N:      int(meanI(func(r *Results) float64 { return float64(get(r).N) })),
			MeanMS: meanF(func(r *Results) float64 { return get(r).MeanMS }),
			P95MS:  meanF(func(r *Results) float64 { return get(r).P95MS }),
			HW95MS: meanF(func(r *Results) float64 { return get(r).HW95MS }),
		}
	}

	mean.JoinRT = meanSummary(func(r *Results) *Summary { return &r.JoinRT })
	mean.OLTPRT = meanSummary(func(r *Results) *Summary { return &r.OLTPRT })
	mean.ScanRT = meanSummary(func(r *Results) *Summary { return &r.ScanRT })
	mean.MeanMemWaitMS = meanF(func(r *Results) float64 { return r.MeanMemWaitMS })
	mean.MaxCPU = meanF(func(r *Results) float64 { return r.MaxCPU })
	mean.OLTPTPS = meanF(func(r *Results) float64 { return r.OLTPTPS })
	mean.MemWaits = meanI(func(r *Results) float64 { return float64(r.MemWaits) })
	mean.MemSteals = meanI(func(r *Results) float64 { return float64(r.MemSteals) })
	mean.StolenPages = meanI(func(r *Results) float64 { return float64(r.StolenPages) })
	mean.JoinsDone = meanI(func(r *Results) float64 { return float64(r.JoinsDone) })
	mean.OLTPDone = meanI(func(r *Results) float64 { return float64(r.OLTPDone) })
	mean.OLTPAborts = meanI(func(r *Results) float64 { return float64(r.OLTPAborts) })
	mean.Deadlocks = meanI(func(r *Results) float64 { return float64(r.Deadlocks) })
	// Fault-injection metrics (zero in fault-free runs, so averaging is
	// unconditionally safe); the spec string is a per-config constant already
	// carried over from runs[0].
	mean.Aborts = meanI(func(r *Results) float64 { return float64(r.Aborts) })
	mean.Retries = meanI(func(r *Results) float64 { return float64(r.Retries) })
	mean.Availability = meanF(func(r *Results) float64 { return r.Availability })

	// Windowed metrics aggregate element-wise: replicates of one
	// configuration share the window layout (same width, same horizon), so
	// window k's metrics average across runs. The peak-window response time
	// is the mean of the per-run peaks (each run peaks at its own window —
	// averaging first would flatten the transient this metric exists to
	// expose), and the recovery time averages over the runs that recovered,
	// keeping −1 (never recovered) only when no run did. mean.Windows is
	// rebuilt rather than aliased, so the aggregate never writes into
	// runs[0]'s series.
	if w0 := runs[0].Windows; len(w0) > 0 && sameWindowLayout(runs) {
		wins := make([]Window, len(w0))
		for k := range wins {
			wk := Window{StartMS: w0[k].StartMS, EndMS: w0[k].EndMS}
			var joins, rtm, rtp, tps, cpu, dsk, mem, abr, avail float64
			for i := range runs {
				w := runs[i].Windows[k]
				joins += float64(w.Joins)
				rtm += w.RTMeanMS
				rtp += w.RTP95MS
				tps += w.JoinTPS
				cpu += w.CPUUtil
				dsk += w.DiskUtil
				mem += w.MemUtil
				abr += float64(w.Aborts)
				avail += w.Availability
			}
			n := float64(len(runs))
			wk.Joins = int(math.Round(joins / n))
			wk.RTMeanMS, wk.RTP95MS, wk.JoinTPS = rtm/n, rtp/n, tps/n
			wk.CPUUtil, wk.DiskUtil, wk.MemUtil = cpu/n, dsk/n, mem/n
			// Fault series (all-zero in fault-free runs, so the window stays
			// zero-valued and serialization is unchanged).
			wk.Aborts = int(math.Round(abr / n))
			wk.Availability = avail / n
			wins[k] = wk
		}
		mean.Windows = wins
		mean.PeakWindowRTMS = meanF(func(r *Results) float64 { return r.PeakWindowRTMS })
		var recSum float64
		recovered := 0
		for i := range runs {
			if rec := runs[i].RecoveryMS; rec >= 0 {
				recSum += rec
				recovered++
			}
		}
		if recovered > 0 {
			mean.RecoveryMS = recSum / float64(recovered)
		} else {
			mean.RecoveryMS = -1
		}
	} else {
		// No windows, or (defensively) heterogeneous layouts that cannot
		// aggregate element-wise: drop the series rather than alias runs[0].
		mean.Windows = nil
		mean.PeakWindowRTMS, mean.RecoveryMS = 0, 0
		if len(w0) == 0 {
			mean.WindowMS = 0
		}
	}

	rep := Replication{Reps: len(runs), Conf: conf}
	rep.JoinRTMS = agg(&mean.JoinRT.MeanMS, func(r *Results) float64 { return r.JoinRT.MeanMS })
	rep.JoinTPS = agg(&mean.JoinTPS, func(r *Results) float64 { return r.JoinTPS })
	rep.OLTPRTMS = agg(&mean.OLTPRT.MeanMS, func(r *Results) float64 { return r.OLTPRT.MeanMS })
	rep.CPUUtil = agg(&mean.CPUUtil, func(r *Results) float64 { return r.CPUUtil })
	rep.DiskUtil = agg(&mean.DiskUtil, func(r *Results) float64 { return r.DiskUtil })
	rep.MemUtil = agg(&mean.MemUtil, func(r *Results) float64 { return r.MemUtil })
	rep.Degree = agg(&mean.AvgJoinDegree, func(r *Results) float64 { return r.AvgJoinDegree })
	var tempIO float64
	rep.TempIO = agg(&tempIO, func(r *Results) float64 { return float64(r.TempIOPages) })
	mean.TempIOPages = int64(math.Round(tempIO))
	return mean, rep
}

// sameWindowLayout reports whether every run carries the same window grid —
// equal width and count. Replicates of one configuration always do (the
// grid is a pure function of the config's windows); hand-assembled slices
// may not, and element-wise averaging across different grids would be
// meaningless.
func sameWindowLayout(runs []Results) bool {
	for i := 1; i < len(runs); i++ {
		if len(runs[i].Windows) != len(runs[0].Windows) || runs[i].WindowMS != runs[0].WindowMS {
			return false
		}
	}
	return true
}

func checkConfidence(conf float64) error {
	if !(conf > 0 && conf < 1) {
		return fmt.Errorf("dynlb: confidence level %v outside (0, 1)", conf)
	}
	return nil
}
