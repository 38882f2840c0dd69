// Package pphj implements the memory-adaptive local hash-join algorithm of
// the paper (Section 4): the Partially Preemptible Hash Join of Pang, Carey
// & Livny (SIGMOD '93), as used by each join process.
//
// Both join inputs are split into p = ceil(sqrt(F*b_A)) partitions. As many
// A (inner) partitions as fit are kept memory-resident so arriving B
// (outer) tuples can be probed directly. When memory is taken away by
// higher-priority transactions, resident partitions are flushed to
// temporary files; when it grows, disk-resident partitions can be revived.
// B tuples hitting a non-resident partition are spilled, and those
// partitions are joined in a deferred pass after the probe input drains.
//
// The type is a pure state machine over tuple and page counts: it decides
// partitioning, residency and spilling, and reports the I/O volume each
// operation implies. The engine executes the I/O against the simulated
// disks and charges CPU per the cost table, keeping this package
// independently testable.
package pphj

import (
	"fmt"
	"math"
)

// Join is the PPHJ state of one join process.
type Join struct {
	blocking int
	fudge    float64
	nParts   int
	memPages int

	aTuples  []int64 // inner tuples received per partition
	bSpilled []int64 // outer tuples spilled per partition
	resident []bool
	buildRR  int // round-robin distribution cursor for builds
	probeRR  int // and for probes

	buildDone bool

	directProbes, spilledProbes int64
	flushes, revivals           int64
}

// NumPartitions returns p = ceil(sqrt(F * innerPages)), at least 1.
func NumPartitions(innerPages int64, fudge float64) int {
	if innerPages <= 0 {
		return 1
	}
	p := int(math.Ceil(math.Sqrt(fudge * float64(innerPages))))
	if p < 1 {
		p = 1
	}
	return p
}

// New creates the join state for an expected local inner input of
// expectedInnerPages pages with memPages (>= 1) of working space. The
// partition count is p = ceil(sqrt(F*b)) capped by memPages — with less
// memory than the ideal partition count the join runs with fewer, larger
// partitions (more spilling), never below one page per partition.
func New(expectedInnerPages int64, fudge float64, blocking, memPages int) *Join {
	if blocking < 1 {
		panic(fmt.Sprintf("pphj: blocking %d", blocking))
	}
	if fudge < 1 {
		panic(fmt.Sprintf("pphj: fudge %v", fudge))
	}
	if memPages < 1 {
		panic(fmt.Sprintf("pphj: memPages %d < 1", memPages))
	}
	n := NumPartitions(expectedInnerPages, fudge)
	if n > memPages {
		n = memPages
	}
	j := &Join{
		blocking: blocking,
		fudge:    fudge,
		nParts:   n,
		memPages: memPages,
		aTuples:  make([]int64, n),
		bSpilled: make([]int64, n),
		resident: make([]bool, n),
	}
	for i := range j.resident {
		j.resident[i] = true
	}
	return j
}

// NParts returns the partition count p.
func (j *Join) NParts() int { return j.nParts }

// MinPages returns the minimal working space (one page per partition).
func (j *Join) MinPages() int { return j.nParts }

// MemPages returns the current working-space size the join plans with.
func (j *Join) MemPages() int { return j.memPages }

// Flushes returns how many partitions were flushed due to memory pressure.
func (j *Join) Flushes() int64 { return j.flushes }

// Revivals returns how many disk-resident partitions were brought back.
func (j *Join) Revivals() int64 { return j.revivals }

// DirectProbes returns outer tuples probed directly against memory.
func (j *Join) DirectProbes() int64 { return j.directProbes }

// SpilledProbes returns outer tuples spilled to temporary files.
func (j *Join) SpilledProbes() int64 { return j.spilledProbes }

// hashPagesFor returns hash-table pages for t inner tuples: the fudge
// factor applied to the fractional data pages, so the per-partition sum
// stays consistent with the strategies' aggregate ceil(F*b_i).
func (j *Join) hashPagesFor(t int64) int64 {
	if t <= 0 {
		return 0
	}
	return int64(math.Ceil(j.fudge * float64(t) / float64(j.blocking)))
}

// ResidentHashPages returns the memory the resident partitions occupy.
// Residency is accounted over the aggregate resident tuples (page rounding
// once, not per partition), keeping the join's true demand equal to the
// ceil(F*b_i) the strategies plan with.
func (j *Join) ResidentHashPages() int64 {
	var tuples int64
	for i, t := range j.aTuples {
		if j.resident[i] {
			tuples += t
		}
	}
	return j.hashPagesFor(tuples)
}

// ResidentParts returns how many partitions are memory-resident.
func (j *Join) ResidentParts() int {
	var n int
	for _, r := range j.resident {
		if r {
			n++
		}
	}
	return n
}

// Build accepts a batch of arriving inner tuples, distributing them evenly
// over the partitions. It returns the temporary pages the engine must write
// now: growth of non-resident partitions plus any partitions flushed to
// stay within the working space.
func (j *Join) Build(tuples int64) (writePages int64) {
	if j.buildDone {
		panic("pphj: Build after EndBuild")
	}
	writePages += j.distribute(tuples, &j.buildRR, func(part int, n int64) int64 {
		before := j.aTuples[part]
		j.aTuples[part] += n
		if j.resident[part] {
			return 0
		}
		// Non-resident: appended to its temporary file.
		return pageGrowth(before, j.aTuples[part], int64(j.blocking))
	})
	writePages += j.enforceMemory()
	return writePages
}

// EndBuild marks the building phase complete.
func (j *Join) EndBuild() { j.buildDone = true }

// Probe accepts a batch of outer tuples. Tuples of resident partitions are
// probed directly; the rest are spilled. It returns the split and the
// temporary pages to write now.
func (j *Join) Probe(tuples int64) (direct, spilled, writePages int64) {
	writePages = j.distribute(tuples, &j.probeRR, func(part int, n int64) int64 {
		if j.resident[part] {
			direct += n
			return 0
		}
		spilled += n
		before := j.bSpilled[part]
		j.bSpilled[part] += n
		return pageGrowth(before, j.bSpilled[part], int64(j.blocking))
	})
	j.directProbes += direct
	j.spilledProbes += spilled
	return direct, spilled, writePages
}

// distribute spreads a batch round-robin over partitions, calling f with
// each partition's share, and sums f's returned page counts.
func (j *Join) distribute(tuples int64, rr *int, f func(part int, n int64) int64) int64 {
	if tuples <= 0 {
		return 0
	}
	var pages int64
	base := tuples / int64(j.nParts)
	rem := tuples % int64(j.nParts)
	for i := 0; i < j.nParts; i++ {
		part := (*rr + i) % j.nParts
		n := base
		if int64(i) < rem {
			n++
		}
		if n > 0 {
			pages += f(part, n)
		}
	}
	*rr = (*rr + int(rem)) % j.nParts
	return pages
}

// enforceMemory flushes resident partitions (largest first) until the
// resident hash pages fit the working space. It returns pages to write.
func (j *Join) enforceMemory() int64 {
	var written int64
	for j.ResidentHashPages() > int64(j.memPages) {
		victim, victimPages := -1, int64(-1)
		for i, t := range j.aTuples {
			if !j.resident[i] {
				continue
			}
			if hp := j.hashPagesFor(t); hp > victimPages {
				victim, victimPages = i, hp
			}
		}
		if victim < 0 {
			break // nothing resident; counts are tiny
		}
		j.resident[victim] = false
		j.flushes++
		// The partition's data pages go to its temporary file.
		written += (j.aTuples[victim] + int64(j.blocking) - 1) / int64(j.blocking)
	}
	return written
}

// SetMem adjusts the working-space size (after a steal or growth). When
// shrinking it flushes partitions and returns the pages the engine must
// write; growing returns 0 (use Revive to bring partitions back).
// newPages below MinPages is clamped to MinPages: the join never operates
// below the paper's minimal space requirement.
func (j *Join) SetMem(newPages int) (writePages int64) {
	if newPages < j.MinPages() {
		newPages = j.MinPages()
	}
	j.memPages = newPages
	return j.enforceMemory()
}

// Revive marks disk-resident partitions resident again while their hash
// tables fit the (possibly grown) working space, returning the temporary
// pages the engine must read back. Revived partitions serve future probes
// directly; their already-spilled B tuples stay deferred.
func (j *Join) Revive() (readPages int64) {
	for {
		// Smallest disk-resident partition first: most revivals per page.
		victim, victimPages := -1, int64(math.MaxInt64)
		for i, t := range j.aTuples {
			if j.resident[i] {
				continue
			}
			if hp := j.hashPagesFor(t); hp < victimPages {
				victim, victimPages = i, hp
			}
		}
		if victim < 0 {
			return readPages
		}
		if j.ResidentHashPages()+victimPages > int64(j.memPages) {
			return readPages
		}
		j.resident[victim] = true
		j.revivals++
		readPages += (j.aTuples[victim] + int64(j.blocking) - 1) / int64(j.blocking)
	}
}

// Deferred describes one disk-resident partition pair requiring the delayed
// join pass: read the A partition, rebuild its hash table, then read and
// probe the spilled B tuples.
type Deferred struct {
	Part    int
	ATuples int64
	APages  int64
	BTuples int64
	BPages  int64
}

// DeferredPlan returns the delayed work for all non-resident partitions
// plus resident partitions that have spilled B tuples (spilled before a
// revival). The engine executes the plan after the probe input drains.
func (j *Join) DeferredPlan() []Deferred {
	var out []Deferred
	for i := range j.aTuples {
		if j.resident[i] && j.bSpilled[i] == 0 {
			continue
		}
		if !j.resident[i] || j.bSpilled[i] > 0 {
			d := Deferred{
				Part:    i,
				BTuples: j.bSpilled[i],
				BPages:  (j.bSpilled[i] + int64(j.blocking) - 1) / int64(j.blocking),
			}
			if !j.resident[i] {
				d.ATuples = j.aTuples[i]
				d.APages = (j.aTuples[i] + int64(j.blocking) - 1) / int64(j.blocking)
			}
			if d.ATuples == 0 && d.BTuples == 0 {
				continue
			}
			out = append(out, d)
		}
	}
	return out
}

func pageGrowth(before, after, blocking int64) int64 {
	pb := (before + blocking - 1) / blocking
	pa := (after + blocking - 1) / blocking
	return pa - pb
}
