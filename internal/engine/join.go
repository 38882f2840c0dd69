package engine

import (
	"fmt"
	"math"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/lock"
	"dynlb/internal/pphj"
	"dynlb/internal/sim"
)

// Space ids 1 and 2 are reserved for the A and B relations (their lock
// keys); dynamically allocated spaces start above reservedSpaces.
const (
	spaceRelA      = -1
	spaceRelB      = -2
	spaceOLTPBase  = -1000 // acctSpace = spaceOLTPBase - 2*pe, leaf = -1
	spaceIndexBase = -4000 // index descent pages of relation fragments
)

// joinQuery carries the runtime state of one parallel hash-join query.
type joinQuery struct {
	s       *System
	id      int64
	txn     lock.TxnID
	coordPE int
	arrival sim.Time
	dec     core.Decision

	aPEs, bPEs []int
	joinMail   []*sim.Chan[jmsg]
	coordMail  *sim.Chan[cmsg]

	// weights are the redistribution shares of the join processes (nil =
	// uniform). With RedistributionSkew > 0 process i receives a share
	// proportional to 1/(i+1)^skew — the partitioning skew the paper's
	// outlook discusses.
	weights []float64
}

// initWeights fills q.weights for a skewed configuration. Under a
// non-constant load profile the skew is sampled at the query's placement
// instant (profile time runs from the measurement start), so drifting or
// flash-crowd skew applies to queries planned inside the hot interval.
func (q *joinQuery) initWeights(deg int) {
	z := q.s.cfg.RedistributionSkew
	if !q.s.profileConst {
		z = q.s.cfg.Profile.SkewAt(q.s.k.Now()-q.s.cfg.Warmup, z)
	}
	if z == 0 {
		return
	}
	q.weights = make([]float64, deg)
	var sum float64
	for i := range q.weights {
		q.weights[i] = 1 / math.Pow(float64(i+1), z)
		sum += q.weights[i]
	}
	for i := range q.weights {
		q.weights[i] /= sum
	}
}

// expectedShare returns join process idx's expected share of total tuples.
func (q *joinQuery) expectedShare(total int64, idx int) int64 {
	if q.weights == nil {
		return share(total, len(q.joinMail), idx)
	}
	return int64(q.weights[idx] * float64(total))
}

// runJoinQuery executes one two-way join query in the calling process (the
// coordinator on coordPE). The flow follows Sections 2 and 4: decision
// round trip, parallel A scans redistributing into the join processes
// (building), parallel B scans (probing), deferred partition joins, result
// merge at the coordinator, read-only two-phase commit with a single round.
//
// Under fault injection a participant crash is detected at the phase
// checkpoints inside joinAttempt, the attempt aborts (locks and the
// placement reservation release) and retryQuery resubmits the query.
func (s *System) runJoinQuery(p *sim.Proc, coordPE int, arrival sim.Time) {
	s.retryQuery(p, coordPE, func(coordPE int) bool {
		return s.joinAttempt(p, coordPE, arrival)
	})
}

// joinAttempt runs one attempt of a join query on the given (live)
// coordinator PE. It reports false when a participant failure aborted the
// attempt after teardown; the caller retries.
func (s *System) joinAttempt(p *sim.Proc, coordPE int, arrival sim.Time) bool {
	attemptStart := s.k.Now()
	pe := s.pe(coordPE)
	pe.mpl.Get(p, 1)
	defer pe.mpl.Put(1)

	s.nextQuery++
	q := &joinQuery{
		s:       s,
		id:      s.nextQuery,
		txn:     s.newTxnID(),
		coordPE: coordPE,
		arrival: arrival,
		aPEs:    s.cfg.ANodes(),
		bPEs:    s.cfg.BNodes(),
	}
	if s.faults != nil {
		// Fragments of a crashed PE are scanned at its chained-declustering
		// buddy (the next live PE), so placements avoiding the dead node
		// complete during the outage.
		q.aPEs = s.faults.liveHosts(q.aPEs)
		q.bPEs = s.faults.liveHosts(q.bPEs)
	}
	q.coordMail = sim.NewChan[cmsg](s.k, fmt.Sprintf("q%d/coord", q.id))
	// failed reports whether any participant of the attempt — the
	// coordinator, a join process host, or a scan host — has failed since
	// the attempt started.
	failed := func() bool {
		return s.faults != nil && s.faults.anyFailedSince(attemptStart, []int{coordPE}, q.dec.JoinPEs, q.aPEs, q.bPEs)
	}

	pe.compute(p, s.cfg.Costs.InitTxn)

	q.dec = s.requestDecision(p, coordPE)
	deg := q.dec.Degree()
	if s.measuring {
		s.joinsStarted++
		s.degrees.Add(float64(deg))
	}

	// Query-atomic memory admission: the paper's "a join query is only
	// started if its minimal space requirement is available" enforced at
	// query granularity — a query enters only when the *minimum* working
	// space of all its join processes fits the admission budget. Without
	// this, queries whose subjoins sit at their minimum on one node while
	// waiting on another can deadlock each other under extreme memory
	// scarcity (e.g. the Fig. 7 configuration).
	if s.memBudget != nil {
		perProc := clampMinSpace(
			pphj.NumPartitions(config.PagesFor(share(s.cfg.AScanTuples(), deg, 0), s.cfg.Blocking), s.cfg.FudgeFactor),
			s.cfg.BufferPages)
		demand := deg * perProc
		if demand > s.memBudget.Cap() {
			demand = s.memBudget.Cap()
		}
		memWaitStart := s.k.Now()
		s.memBudget.Get(p, demand)
		defer s.memBudget.Put(demand)
		if s.measuring {
			s.memWaitMS.Add((s.k.Now() - memWaitStart).Milliseconds())
		}
	}

	// Start the join processes, then the A scans (building phase).
	q.joinMail = make([]*sim.Chan[jmsg], deg)
	q.initWeights(deg)
	for i := 0; i < deg; i++ {
		q.joinMail[i] = sim.NewChan[jmsg](s.k, fmt.Sprintf("q%d/join%d", q.id, i))
		jpe := s.pe(q.dec.JoinPEs[i])
		s.sendCtl(p, coordPE, jpe.id, func() {
			s.k.Spawn(fmt.Sprintf("q%d/joinproc%d", q.id, i), func(jp *sim.Proc) {
				s.runJoinProc(jp, q, jpe, i)
			})
		})
	}
	for i, ape := range q.aPEs {
		s.sendCtl(p, coordPE, ape, func() {
			s.k.Spawn(fmt.Sprintf("q%d/scanA%d", q.id, i), func(sp *sim.Proc) {
				s.runScan(sp, q, s.pe(ape), true, i)
			})
		})
	}

	// Building phase: collect scan completions, then signal end-of-build
	// to the join processes and wait for their reports.
	s.collect(p, q.coordMail, coordPE, cmsgScanADone, len(q.aPEs), "A scans")
	q.broadcastJoin(p, jmsgAEOF)
	s.collect(p, q.coordMail, coordPE, cmsgBuildDone, deg, "build")
	// Fault checkpoint: a participant crashed during the building phase —
	// its hash-table partitions are lost, so abort before probing. The join
	// processes wait in their probe loops and must be told to stop.
	if failed() {
		s.abortJoinAttempt(p, q, true)
		return false
	}

	// Probing phase: start the B scans.
	for i, bpe := range q.bPEs {
		s.sendCtl(p, coordPE, bpe, func() {
			s.k.Spawn(fmt.Sprintf("q%d/scanB%d", q.id, i), func(sp *sim.Proc) {
				s.runScan(sp, q, s.pe(bpe), false, i)
			})
		})
	}
	s.collect(p, q.coordMail, coordPE, cmsgScanBDone, len(q.bPEs), "B scans")
	q.broadcastJoin(p, jmsgBEOF)
	s.collect(p, q.coordMail, coordPE, cmsgJoinDone, deg, "probe")
	// Fault checkpoint: a participant crashed during probing or the
	// deferred joins — results are incomplete, abort. The join processes
	// have already terminated, so only locks and the reservation release.
	if failed() {
		s.abortJoinAttempt(p, q, false)
		return false
	}

	// Read-only optimization: one commit round releases the read locks.
	s.releaseRound(p, coordPE, q.txn, q.coordMail, q.aPEs, q.bPEs)
	pe.compute(p, s.cfg.Costs.TermTxn)

	// Return the placement's reservation to the control node's ledger.
	q.releaseDecision()

	if s.measuring {
		rt := (s.k.Now() - arrival).Milliseconds()
		s.joinRT.Add(rt)
		if s.win != nil {
			s.win.addRT(rt)
		}
	}
	return true
}

// releaseDecision returns the placement's reservation to the control
// node's ledger (asynchronously; the coordinator does not wait).
func (q *joinQuery) releaseDecision() {
	s := q.s
	dec := q.dec
	s.sendCtlAsync(q.coordPE, s.ctrlPE, func() {
		s.k.Spawn("ctrl-release", func(cp *sim.Proc) {
			s.recvCtlCPU(cp, s.ctrlPE)
			s.ctrl.Release(dec)
		})
	})
}

// abortJoinAttempt tears a failed attempt down: the join processes are told
// to stop (stopProcs — needed only while they still wait in their probe
// loops), the read locks release at every scan host, abort cleanup is
// charged at the coordinator, and the placement reservation returns to the
// control node.
func (s *System) abortJoinAttempt(p *sim.Proc, q *joinQuery, stopProcs bool) {
	if stopProcs {
		q.broadcastJoin(p, jmsgStop)
	}
	s.releaseRound(p, q.coordPE, q.txn, q.coordMail, q.aPEs, q.bPEs)
	s.pe(q.coordPE).compute(p, s.cfg.Costs.TermTxn/2)
	q.releaseDecision()
}

// scanSpacePages returns a scan subquery's working-space request:
// input/prefetch buffers plus redistribution output buffering, scaled down
// on small buffers. Scans take what is available without blocking and give
// frames back under pressure (they degrade to smaller buffers, not to
// waiting).
func scanSpacePages(bufferPages int) int {
	pages := bufferPages / 8
	if pages > 6 {
		pages = 6
	}
	if pages < 1 {
		pages = 1
	}
	return pages
}

// runScan executes one scan subquery: a clustered-index selection over the
// local fragment whose output is redistributed among the join processes.
func (s *System) runScan(p *sim.Proc, q *joinQuery, pe *PE, inner bool, fragIdx int) {
	start := s.k.Now()
	done := cmsgScanBDone
	if inner {
		done = cmsgScanADone
	}
	if s.faults != nil && !s.faults.hostUp(pe.id) {
		// The host crashed before the start message arrived. The failure
		// detector synthesizes the completion report the coordinator is
		// counting; the coordinator aborts at its next checkpoint.
		q.coordMail.Put(cmsg{kind: done, from: pe.id})
		return
	}
	s.recvCtlCPU(p, pe.id) // start message
	c := &s.cfg

	space := pe.buf.NewSpace(fmt.Sprintf("q%d/scan%d", q.id, pe.id), bufferQueryPriority, 0)
	space.AcquireBestEffort(p, scanSpacePages(c.BufferPages))
	space.SetStealHandler(func(need int) int {
		// Scan buffers shrink to one page under memory pressure.
		give := space.Pages() - 1
		if give > need {
			give = need
		}
		if give <= 0 {
			return 0
		}
		space.Release(give)
		return give
	})
	defer space.Close()

	relSpace := int64(spaceRelA)
	total, nodes := c.ATuples, len(q.aPEs)
	if !inner {
		relSpace = spaceRelB
		total, nodes = c.BTuples, len(q.bPEs)
	}
	// Long read lock on the fragment (released by the commit round).
	if err := pe.locks.Lock(p, q.txn, lock.Key{Space: relSpace, Item: 0}, lock.Shared); err != nil {
		panic("engine: scan read lock aborted") // queries never deadlock: single S lock
	}

	match := share(config.SelTuples(total, c.ScanSelectivity), nodes, fragIdx)

	// Index descent: root is memory-resident, inner levels come from the
	// disk cache most of the time.
	for lvl := int64(0); lvl < 2; lvl++ {
		pg := pageID(spaceIndexBase-int64(pe.id), lvl)
		if !pe.disks.Read(p, dataDiskFor(pe, lvl), pg, false) {
			pe.compute(p, c.Costs.IO)
		}
	}

	// Read matching pages and redistribute by hash partitioning: one
	// output buffer per join process, flushed when a packet fills and at
	// scan end. With a high degree of parallelism most messages carry only
	// partially filled packets — the redistribution overhead that grows
	// with the degree of parallelism (Section 5.2).
	deg := q.dec.Degree()
	kind := jmsgProbe
	if inner {
		kind = jmsgBuild
	}
	tpp := c.TuplesPerPacket()
	bufs := make([]int64, deg)
	sendBuf := func(idx int) {
		n := bufs[idx]
		if n == 0 {
			return
		}
		bufs[idx] = 0
		mail := q.joinMail[idx]
		s.sendData(p, pe.id, q.dec.JoinPEs[idx], n, func() {
			mail.Put(jmsg{kind: kind, tuples: n})
		})
	}
	rr := (int(q.id) + fragIdx) % deg
	var credit []float64
	if q.weights != nil {
		credit = make([]float64, deg)
	}
	var sent int64
	// The tuples of each page read hash-partition over the join processes —
	// uniformly round-robin, or by the configured skew weights; full output
	// buffers are transmitted immediately.
	s.readPages(p, pe, relSpace*1_000_000-int64(fragIdx)*100_000, match, start, func(n int64) {
		if q.weights == nil {
			sent += n
			for ; n > 0; n-- {
				bufs[rr]++
				if bufs[rr] >= tpp {
					sendBuf(rr)
				}
				rr = (rr + 1) % deg
			}
			return
		}
		for i := range credit {
			credit[i] += float64(n) * q.weights[i]
			if add := int64(credit[i]); add > 0 {
				credit[i] -= float64(add)
				bufs[i] += add
				sent += add
				for bufs[i] >= tpp {
					sendBuf(i)
				}
			}
		}
	})
	if s.faults != nil && s.faults.failedSince(pe.id, start) {
		// Crashed under the scan: the buffered output is lost; report
		// completion so the coordinator's counting closes, then abort at
		// its checkpoint. (The abort round still releases the read lock.)
		q.coordMail.Put(cmsg{kind: done, from: pe.id})
		return
	}
	// Skewed apportionment truncates fractions; hand leftovers out
	// round-robin so every matching tuple is shipped.
	for ; sent < match; sent++ {
		bufs[rr]++
		if bufs[rr] >= tpp {
			sendBuf(rr)
		}
		rr = (rr + 1) % deg
	}
	// Scan end: transmit the partially filled output buffers, then report
	// completion to the coordinator (which broadcasts end-of-phase to the
	// join processes once all scans are in).
	for i := range bufs {
		sendBuf(i)
	}
	s.sendCtl(p, pe.id, q.coordPE, func() {
		q.coordMail.Put(cmsg{kind: done, from: pe.id})
	})
}

// readPages is a scan subquery's sequential read of its clustered
// fragment: the pages holding the match matching tuples, from page 0 of
// space base. Each page is read with prefetch (plus the I/O CPU on a cache
// miss), its tuples are charged a read and an output-buffer write, and
// emit receives their count. The loop stops early once pe has failed since
// start.
func (s *System) readPages(p *sim.Proc, pe *PE, base, match int64, start sim.Time, emit func(n int64)) {
	c := &s.cfg
	for page, remaining := int64(0), match; remaining > 0; page++ {
		if s.faults != nil && s.faults.failedSince(pe.id, start) {
			return // crashed mid-scan: stop doing real work
		}
		if !pe.disks.Read(p, dataDiskFor(pe, page), pageID(base, page), true) {
			pe.compute(p, c.Costs.IO)
		}
		n := min(int64(c.Blocking), remaining)
		remaining -= n
		pe.compute(p, n*(c.Costs.ReadTuple+c.Costs.WriteTuple))
		emit(n)
	}
}

// broadcastJoin sends a control message to every join process.
func (q *joinQuery) broadcastJoin(p *sim.Proc, kind jmsgKind) {
	for i := range q.joinMail {
		mail := q.joinMail[i]
		q.s.sendCtl(p, q.coordPE, q.dec.JoinPEs[i], func() {
			mail.Put(jmsg{kind: kind})
		})
	}
}

// nextJoinMsg takes the next message from a join process's mailbox. Each
// phase loop runs until its end-of-phase marker (jmsgAEOF/jmsgBEOF), so the
// mailbox must never close while the process waits on it: a closed and
// drained mailbox here means the coordinator tore the query down without
// completing the protocol, and is diagnosed explicitly instead of handing
// the phase loop a zero message.
func nextJoinMsg(p *sim.Proc, mail *sim.Chan[jmsg], qid int64, idx int) jmsg {
	m, ok := mail.Get(p)
	if !ok {
		panic(fmt.Sprintf("engine: q%d/join%d mailbox closed mid-phase with no end-of-phase marker (protocol violation)", qid, idx))
	}
	return m
}

// runJoinProc executes one join process: working-space acquisition (the
// FCFS memory queue), PPHJ building/probing, deferred partition joins, and
// result shipping.
func (s *System) runJoinProc(p *sim.Proc, q *joinQuery, pe *PE, idx int) {
	start := s.k.Now()
	if s.faults != nil && !s.faults.hostUp(pe.id) {
		s.deadJoinProc(p, q, idx, pe.id)
		return
	}
	// failed reports whether this PE has crashed under the process. The
	// process then stops doing real work (arriving data vanishes) but keeps
	// draining its mailbox and reporting phase completions, so the
	// coordinator's protocol closes and aborts at its checkpoint.
	failed := func() bool { return s.faults != nil && s.faults.failedSince(pe.id, start) }
	s.recvCtlCPU(p, pe.id) // start message
	c := &s.cfg
	mail := q.joinMail[idx]

	expInnerTuples := q.expectedShare(s.cfg.AScanTuples(), idx)
	expInnerPages := config.PagesFor(expInnerTuples, c.Blocking)
	minPages := clampMinSpace(pphj.NumPartitions(expInnerPages, c.FudgeFactor), c.BufferPages)
	desired := q.dec.MemPerPE
	if desired < minPages {
		desired = minPages
	}

	space := pe.buf.NewSpace(fmt.Sprintf("q%d/j%d", q.id, idx), bufferQueryPriority, minPages)
	waitStart := s.k.Now()
	got := space.Acquire(p, desired)
	if s.measuring {
		s.memWaitMS.Add((s.k.Now() - waitStart).Milliseconds())
	}
	defer space.Close()

	j := pphj.New(expInnerPages, c.FudgeFactor, c.Blocking, got)
	temp := pe.newTemp()
	space.SetStealHandler(func(need int) int {
		avail := space.Pages() - j.MinPages()
		if avail <= 0 {
			return 0
		}
		release := need
		if release > avail {
			release = avail
		}
		w := j.SetMem(space.Pages() - release)
		temp.writeAsync(w)
		space.Release(release)
		return release
	})

	res := &resultEmitter{s: s, q: q, pe: pe}

	// --- Building phase ---
	for building := true; building; {
		m := nextJoinMsg(p, mail, q.id, idx)
		switch m.kind {
		case jmsgBuild:
			if failed() {
				continue // crashed: arriving build data vanishes
			}
			s.recvDataCPU(p, pe.id, m.tuples)
			pe.compute(p, m.tuples*(c.Costs.HashTuple+c.Costs.InsertHash))
			temp.write(p, j.Build(m.tuples))
		case jmsgAEOF:
			if failed() {
				building = false
				continue
			}
			s.recvCtlCPU(p, pe.id)
			building = false
		case jmsgStop:
			return // coordinator aborted the attempt
		default:
			panic("engine: unexpected probe data during build")
		}
	}
	if failed() {
		q.coordMail.Put(cmsg{kind: cmsgBuildDone, from: pe.id})
	} else {
		j.EndBuild()
		// Memory may have freed up since acquisition: revive partitions.
		if grown := space.TryGrow(desired - space.Pages()); grown > 0 {
			j.SetMem(space.Pages())
			temp.read(p, j.Revive())
		}
		s.sendCtl(p, pe.id, q.coordPE, func() {
			q.coordMail.Put(cmsg{kind: cmsgBuildDone, from: pe.id})
		})
	}

	// --- Probing phase ---
	for probing := true; probing; {
		m := nextJoinMsg(p, mail, q.id, idx)
		switch m.kind {
		case jmsgProbe:
			if failed() {
				continue // crashed: arriving probe data vanishes
			}
			s.recvDataCPU(p, pe.id, m.tuples)
			direct, spilled, w := j.Probe(m.tuples)
			pe.compute(p, direct*(c.Costs.HashTuple+c.Costs.ProbeHash)+
				spilled*(c.Costs.HashTuple+c.Costs.WriteTuple))
			temp.write(p, w)
			res.probe(p, direct)
		case jmsgBEOF:
			if failed() {
				probing = false
				continue
			}
			s.recvCtlCPU(p, pe.id)
			probing = false
		case jmsgStop:
			return // coordinator aborted the attempt
		default:
			panic("engine: unexpected build data during probe")
		}
	}
	if !failed() {
		temp.flush(p)

		// --- Deferred partition joins ---
		for _, d := range j.DeferredPlan() {
			if failed() {
				break
			}
			if d.APages > 0 {
				temp.read(p, d.APages)
				pe.compute(p, d.ATuples*(c.Costs.ReadTuple+c.Costs.InsertHash))
			}
			if d.BPages > 0 {
				temp.read(p, d.BPages)
				pe.compute(p, d.BTuples*(c.Costs.ReadTuple+c.Costs.ProbeHash))
				res.probe(p, d.BTuples)
			}
		}
	}
	if failed() {
		q.coordMail.Put(cmsg{kind: cmsgJoinDone, from: pe.id})
		return
	}
	res.flush(p)

	s.sendCtl(p, pe.id, q.coordPE, func() {
		q.coordMail.Put(cmsg{kind: cmsgJoinDone, from: pe.id})
	})
}

// deadJoinProc stands in for a join process whose host crashed before the
// start message arrived: arriving redistribution data vanishes, and the
// failure detector synthesizes the end-of-phase reports the coordinator is
// counting, so the protocol completes and the coordinator aborts at its
// next checkpoint.
func (s *System) deadJoinProc(p *sim.Proc, q *joinQuery, idx, peID int) {
	mail := q.joinMail[idx]
	for {
		m, ok := mail.Get(p)
		if !ok {
			return
		}
		switch m.kind {
		case jmsgAEOF:
			q.coordMail.Put(cmsg{kind: cmsgBuildDone, from: peID})
		case jmsgBEOF:
			q.coordMail.Put(cmsg{kind: cmsgJoinDone, from: peID})
			return
		case jmsgStop:
			return
		}
	}
}

// resultEmitter converts probed outer tuples into result tuples (the join
// result is ResultFraction of the inner scan output, so each outer tuple
// matches with ratio |result| / |sel(B)|) and ships full packets to the
// coordinator.
type resultEmitter struct {
	s     *System
	q     *joinQuery
	pe    *PE
	carry int64 // numerator remainder of probed*|result| / |sel(B)|
	buf   int64 // result tuples awaiting a full packet
}

func (r *resultEmitter) probe(p *sim.Proc, probed int64) {
	c := &r.s.cfg
	totalB := c.BScanTuples()
	if totalB == 0 {
		return
	}
	totalRes := int64(float64(c.AScanTuples()) * c.ResultFraction)
	r.carry += probed * totalRes
	emit := r.carry / totalB
	r.carry %= totalB
	if emit == 0 {
		return
	}
	r.pe.compute(p, emit*c.Costs.WriteTuple)
	r.buf += emit
	tpp := c.TuplesPerPacket()
	for r.buf >= tpp {
		r.send(p, tpp)
		r.buf -= tpp
	}
}

func (r *resultEmitter) flush(p *sim.Proc) {
	if r.buf > 0 {
		r.send(p, r.buf)
		r.buf = 0
	}
}

func (r *resultEmitter) send(p *sim.Proc, tuples int64) {
	mail := r.q.coordMail
	r.s.sendData(p, r.pe.id, r.q.coordPE, tuples, func() {
		mail.Put(cmsg{kind: cmsgResult, tuples: tuples, from: r.pe.id})
	})
}

// --- small helpers -----------------------------------------------------

func share(total int64, parts, idx int) int64 {
	base := total / int64(parts)
	if int64(idx) < total%int64(parts) {
		base++
	}
	return base
}

func dataDiskFor(pe *PE, page int64) int {
	return int(page % int64(pe.disks.NDisks()))
}

// clampMinSpace bounds a join process's minimal working space by half the
// node's buffer: on very small buffers PPHJ runs with fewer, larger
// partitions instead of demanding more memory than a node can ever grant.
func clampMinSpace(parts, bufferPages int) int {
	cap := bufferPages / 2
	if cap < 1 {
		cap = 1
	}
	if parts > cap {
		return cap
	}
	if parts < 1 {
		return 1
	}
	return parts
}
