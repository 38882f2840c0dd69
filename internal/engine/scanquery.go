package engine

import (
	"fmt"

	"dynlb/internal/buffer"
	"dynlb/internal/config"
	"dynlb/internal/lock"
	"dynlb/internal/sim"
)

// Standalone scan query classes (Section 4's relation scan, clustered index
// scan and non-clustered index scan query types): a coordinator starts one
// scan subquery per home PE of the relation; subqueries select matching
// tuples and stream them back; the coordinator merges and commits with the
// read-only optimization.

// runScanQuery executes one standalone scan query in the calling process.
// Under fault injection a participant crash aborts the attempt at the
// post-collection checkpoint and retryQuery resubmits the query.
func (s *System) runScanQuery(p *sim.Proc, coordPE int, class config.ScanClass, arrival sim.Time) {
	s.retryQuery(p, coordPE, func(coordPE int) bool {
		return s.scanQueryAttempt(p, coordPE, class, arrival)
	})
}

// scanQueryAttempt runs one attempt of a standalone scan query on the given
// (live) coordinator PE, reporting false when a participant failure aborted
// it after lock teardown.
func (s *System) scanQueryAttempt(p *sim.Proc, coordPE int, class config.ScanClass, arrival sim.Time) bool {
	attemptStart := s.k.Now()
	pe := s.pe(coordPE)
	pe.mpl.Get(p, 1)
	defer pe.mpl.Put(1)

	s.nextQuery++
	qid := s.nextQuery
	txn := s.newTxnID()
	pe.compute(p, s.cfg.Costs.InitTxn)

	relSpace := int64(spaceRelA)
	total := s.cfg.ATuples
	homes := s.cfg.ANodes()
	if class.OnB {
		relSpace = spaceRelB
		total = s.cfg.BTuples
		homes = s.cfg.BNodes()
	}
	if s.faults != nil {
		homes = s.faults.liveHosts(homes)
	}

	mail := sim.NewChan[cmsg](s.k, fmt.Sprintf("sq%d/coord", qid))
	for i, home := range homes {
		s.sendCtl(p, coordPE, home, func() {
			s.k.Spawn(fmt.Sprintf("sq%d/scan%d", qid, i), func(sp *sim.Proc) {
				s.runScanFragment(sp, scanFragment{
					qid: qid, txn: txn, class: class,
					relSpace: relSpace, total: total,
					nodes: len(homes), fragIdx: i,
					coordPE: coordPE, mail: mail,
				}, s.pe(home))
			})
		})
	}
	s.collect(p, mail, coordPE, cmsgScanADone, len(homes), "scans")

	// Fault checkpoint: a participant crashed during the scans — the
	// streamed results are incomplete, so release the locks (the commit
	// round doubles as the abort round) and abort.
	failed := s.faults != nil && s.faults.anyFailedSince(attemptStart, []int{coordPE}, homes)
	s.releaseRound(p, coordPE, txn, mail, homes)
	if failed {
		pe.compute(p, s.cfg.Costs.TermTxn/2)
		return false
	}
	pe.compute(p, s.cfg.Costs.TermTxn)

	if s.measuring {
		s.scanRT.Add((s.k.Now() - arrival).Milliseconds())
	}
	return true
}

type scanFragment struct {
	qid      int64
	txn      lock.TxnID
	class    config.ScanClass
	relSpace int64
	total    int64
	nodes    int
	fragIdx  int
	coordPE  int
	mail     *sim.Chan[cmsg]
}

// runScanFragment executes one scan subquery of a standalone scan query.
func (s *System) runScanFragment(p *sim.Proc, f scanFragment, pe *PE) {
	start := s.k.Now()
	if s.faults != nil && !s.faults.hostUp(pe.id) {
		// Crashed before the start message arrived: the failure detector
		// synthesizes the completion report; the coordinator aborts at its
		// checkpoint.
		f.mail.Put(cmsg{kind: cmsgScanADone, from: pe.id})
		return
	}
	// failed reports whether this PE crashed under the fragment; the scan
	// then stops doing real work and synthesizes its completion report.
	failed := func() bool { return s.faults != nil && s.faults.failedSince(pe.id, start) }
	s.recvCtlCPU(p, pe.id)
	c := &s.cfg

	if err := pe.locks.Lock(p, f.txn, lock.Key{Space: f.relSpace, Item: 0}, lock.Shared); err != nil {
		panic("engine: scan fragment read lock aborted")
	}

	match := share(config.SelTuples(f.total, f.class.Selectivity), f.nodes, f.fragIdx)
	tpp := c.TuplesPerPacket()

	var buf int64 // result tuples awaiting a full packet
	if f.class.Clustered {
		// Matching pages are contiguous: sequential reads with prefetch,
		// one result packet per filled buffer.
		s.readPages(p, pe, f.relSpace*1_000_000-int64(f.fragIdx)*100_000-500_000, match, start, func(n int64) {
			buf += n
			for buf >= tpp {
				buf -= tpp
				s.sendResult(p, pe, f, tpp)
			}
		})
	} else {
		// Non-clustered index: an index descent (upper levels resident)
		// plus one random data page access per matching tuple, through the
		// buffer (repeated hits on hot pages are free).
		fragPages := config.PagesFor(share(f.total, f.nodes, f.fragIdx), c.Blocking)
		if fragPages < 1 {
			fragPages = 1
		}
		for i := int64(0); i < match; i++ {
			if failed() {
				break
			}
			pe.compute(p, 3*c.Costs.ReadTuple) // B+-tree descent, resident
			page := (i*2654435761 + int64(f.qid)) % fragPages
			pg := pageID(f.relSpace*1_000_000-int64(f.fragIdx)*100_000-700_000, page)
			pe.buf.Fix(p, pg, false, false, buffer.PriorityQuery)
			pe.compute(p, c.Costs.ReadTuple+c.Costs.WriteTuple)
			pe.buf.Unfix(pg)
			buf++
			if buf == tpp {
				buf = 0
				s.sendResult(p, pe, f, tpp)
			}
		}
	}
	if buf > 0 && !failed() {
		s.sendResult(p, pe, f, buf)
	}

	if failed() {
		f.mail.Put(cmsg{kind: cmsgScanADone, from: pe.id})
		return
	}
	s.sendCtl(p, pe.id, f.coordPE, func() {
		f.mail.Put(cmsg{kind: cmsgScanADone, from: pe.id})
	})
}

func (s *System) sendResult(p *sim.Proc, pe *PE, f scanFragment, tuples int64) {
	mail := f.mail
	s.sendData(p, pe.id, f.coordPE, tuples, func() {
		mail.Put(cmsg{kind: cmsgResult, tuples: tuples, from: pe.id})
	})
}
