// Package costmodel implements the analytic single-user response-time model
// the paper uses to derive the static degrees of join parallelism (Section
// 2, referencing [17, 34]):
//
//   - p_su-opt: the degree minimizing the estimated single-user response
//     time R(p), found numerically over 1..n (the paper sets the derivative
//     of the analytic formula to zero; the curve is the one sketched in
//     Fig. 1a);
//   - p_su-noIO = MIN(n, ceil(b_i*F / m)): the smallest degree avoiding
//     temporary file I/O in single-user mode (formula 3.1).
//
// The model mirrors the simulator's cost accounting (same instruction table,
// same sequential-I/O timing with prefetching) so the static strategies in
// internal/core are driven by numbers consistent with the simulation.
package costmodel

import (
	"math"

	"dynlb/internal/config"
	"dynlb/internal/sim"
)

// Model evaluates single-user join response times for a configuration.
type Model struct {
	cfg config.Config
}

// New creates a model for the given configuration.
func New(cfg config.Config) *Model { return &Model{cfg: cfg} }

// PsuNoIO returns formula 3.1: the minimal number of join processors whose
// aggregate memory holds the inner hash table, capped by the system size.
func (m *Model) PsuNoIO() int {
	c := &m.cfg
	need := float64(c.AScanPages()) * c.FudgeFactor
	perPE := float64(c.BufferPages)
	p := int(math.Ceil(need / perPE))
	if p < 1 {
		p = 1
	}
	if p > c.NPE {
		p = c.NPE
	}
	return p
}

// PsuOpt returns the degree of join parallelism minimizing the estimated
// single-user response time. Like the analytic models the paper builds on
// ([17, 34], Fig. 1a), the optimum balances per-processor work against
// startup/communication overhead and is memory-blind: temporary-file I/O is
// not part of the formula (that is p_su-noIO's job). This matters in
// memory-bound configurations (Fig. 7), where the paper's p_su-opt stays at
// its CPU-derived value although it no longer avoids overflow.
func (m *Model) PsuOpt() int {
	best, bestRT := 1, sim.Time(1<<62)
	for p := 1; p <= m.cfg.NPE; p++ {
		rt := m.ResponseTimeMem(p, 1<<30)
		if rt < bestRT {
			best, bestRT = p, rt
		}
	}
	return best
}

// Curve returns R(p) for p = 1..maxP (the Fig. 1a response-time curve).
func (m *Model) Curve(maxP int) []sim.Duration {
	out := make([]sim.Duration, maxP)
	for p := 1; p <= maxP; p++ {
		out[p-1] = m.ResponseTime(p)
	}
	return out
}

// ResponseTime estimates the single-user response time of the two-way join
// query with p join processors, assuming an otherwise idle system with the
// full buffer available for join processing on every node.
func (m *Model) ResponseTime(p int) sim.Duration {
	return m.ResponseTimeMem(p, m.cfg.BufferPages)
}

// ResponseTimeMem estimates response time with p join processors of which
// each contributes memPerPE buffer pages to the hash join — the quantity
// integrated strategies reason about under memory contention.
func (m *Model) ResponseTimeMem(p int, memPerPE int) sim.Duration {
	if p < 1 {
		p = 1
	}
	c := &m.cfg
	nA, nB := c.NANodes(), c.NBNodes()
	tA, tB := c.AScanTuples(), c.BScanTuples()
	tpp := c.TuplesPerPacket()

	// --- Coordinator: startup and termination -------------------------
	participants := int64(nA + nB + p)
	startInstr := c.Costs.InitTxn + participants*c.Costs.SendMsg
	// participants acknowledge during commit; read-only 2PC: one round.
	commitInstr := c.Costs.TermTxn + participants*(c.Costs.SendMsg+c.Costs.RecvMsg)
	coord := c.CPUTime(startInstr + commitInstr)
	// Each participant pays receive+send control overhead; the slowest
	// path adds one participant's share.
	partInstr := 2*(c.Costs.RecvMsg+c.Costs.SendMsg) + c.Costs.InitTxn/4
	coord += c.CPUTime(partInstr)

	// --- Scan phases (parallel across the data nodes) -----------------
	scanA := m.scanElapsed(tA, c.ATuples, nA)
	scanB := m.scanElapsed(tB, c.BTuples, nB)

	// --- Join processing per join PE ----------------------------------
	tAj := ceilDiv(tA, int64(p))
	tBj := ceilDiv(tB, int64(p))
	pktAj := ceilDiv(tAj, tpp)
	pktBj := ceilDiv(tBj, tpp)

	buildInstr := pktAj*(c.Costs.RecvMsg+c.Costs.Copy8KB) +
		tAj*(c.Costs.HashTuple+c.Costs.InsertHash)

	// Result tuples: ResultFraction of the inner scan output, produced at
	// the join PEs and shipped to the coordinator.
	resTuples := int64(float64(tA)*c.ResultFraction) / int64(p)
	resPkts := ceilDiv(resTuples, tpp)
	probeInstr := pktBj*(c.Costs.RecvMsg+c.Costs.Copy8KB) +
		tBj*(c.Costs.HashTuple+c.Costs.ProbeHash) +
		resTuples*c.Costs.WriteTuple +
		resPkts*(c.Costs.Copy8KB+c.Costs.SendMsg)

	// --- Temporary file I/O (hash-table overflow) ---------------------
	pagesAj := ceilDiv(tAj, int64(c.Blocking))
	hashPages := int64(float64(pagesAj)*c.FudgeFactor + 0.9999)
	var spillA, spillB int64
	if int64(memPerPE) < hashPages {
		spillA = hashPages - int64(memPerPE)
		frac := float64(spillA) / float64(hashPages)
		spillB = int64(frac * float64(ceilDiv(tBj, int64(c.Blocking))))
	}
	// Spilled pages are written once and read back once.
	tempPages := 2 * (spillA + spillB)
	tempIO := sim.Scale(m.seqPageIO(), float64(tempPages))
	tempCPU := c.CPUTime(ceilDiv(tempPages, int64(c.Disk.Prefetch)) * c.Costs.IO)

	build := c.CPUTime(buildInstr)
	probe := c.CPUTime(probeInstr) + tempIO + tempCPU

	// The analytic model sums component times (no pipelining credit),
	// like the formula-based models of [17, 34] the paper builds on; the
	// simulator gives the pipeline its real overlap.
	buildPhase := scanA + build
	probePhase := scanB + probe

	// Coordinator merges the result stream.
	mergeInstr := int64(p) * resPkts * (c.Costs.RecvMsg + c.Costs.Copy8KB)
	merge := c.CPUTime(mergeInstr)

	return coord + buildPhase + probePhase + merge
}

// scanElapsed estimates the elapsed time of the slowest scan subquery when
// tuples matching tuples of a relation with total totTuples are read via
// clustered index on nodes data nodes and shipped to the join processors.
func (m *Model) scanElapsed(matching, totTuples int64, nodes int) sim.Duration {
	c := &m.cfg
	tFrag := ceilDiv(matching, int64(nodes))
	pages := ceilDiv(tFrag, int64(c.Blocking))
	// Index descent: a few random reads; then sequential leaf/data pages.
	descent := sim.Scale(m.randPageIO(), 2)
	seq := sim.Scale(m.seqPageIO(), float64(pages))
	pkts := ceilDiv(tFrag, c.TuplesPerPacket())
	physIOs := ceilDiv(pages, int64(c.Disk.Prefetch)) + 2
	cpu := c.CPUTime(physIOs*c.Costs.IO +
		tFrag*(c.Costs.ReadTuple+c.Costs.WriteTuple) +
		pkts*(c.Costs.Copy8KB+c.Costs.SendMsg))
	wire := sim.Duration(pkts) * c.Net.WirePerPacket
	return descent + seq + cpu + wire
}

// seqPageIO returns the average elapsed time per page of a sequential read
// or write run with prefetching: every Prefetch pages pay one physical
// access, the rest are controller-cache hits.
func (m *Model) seqPageIO() sim.Duration {
	d := &m.cfg.Disk
	run := d.CtrlPerPage + d.AvgAccess + sim.Duration(d.Prefetch)*d.PrefetchPerPage + d.TransferPerPage +
		sim.Duration(d.Prefetch-1)*(d.CtrlPerPage+d.TransferPerPage)
	return run / sim.Duration(d.Prefetch)
}

// randPageIO returns the elapsed time of one random page read.
func (m *Model) randPageIO() sim.Duration {
	d := &m.cfg.Disk
	return d.CtrlPerPage + d.AvgAccess + d.PrefetchPerPage + d.TransferPerPage
}

func ceilDiv(a, b int64) int64 {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}
