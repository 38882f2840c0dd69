package engine

import (
	"fmt"

	"dynlb/internal/core"
	"dynlb/internal/lock"
	"dynlb/internal/sim"
)

// Communication manager: every message charges the Fig. 4 CPU costs at the
// sender when transmitted and at the receiver when consumed, plus the wire
// occupancy modelled by internal/netw. Data messages carry one packet of
// tuples; control messages are small single-packet messages.

// controlBytes is the payload size of control messages (start, EOF, commit,
// utilization reports).
const controlBytes = 256

// ctrlDecideInstr is the control node's CPU cost of computing one placement.
const ctrlDecideInstr = 2000

// jmsg is a message into a join process's mailbox.
type jmsg struct {
	kind   jmsgKind
	tuples int64
}

type jmsgKind int

const (
	jmsgBuild jmsgKind = iota // packet of inner tuples
	jmsgProbe                 // packet of outer tuples
	jmsgAEOF                  // an A-scan finished
	jmsgBEOF                  // a B-scan finished
	jmsgStop                  // query aborted / teardown
)

// cmsg is a message into a query coordinator's mailbox.
type cmsg struct {
	kind   cmsgKind
	tuples int64
	from   int
}

type cmsgKind int

const (
	cmsgBuildDone cmsgKind = iota // a join process finished building
	cmsgResult                    // packet of result tuples
	cmsgJoinDone                  // a join process finished completely
	cmsgAck                       // commit acknowledgement
	cmsgScanADone                 // an A-scan subquery finished
	cmsgScanBDone                 // a B-scan subquery finished
)

// copyInstr returns the buffer-copy cost of a message carrying the given
// tuple count: the Copy8KB table entry scaled to the actual payload (the
// paper's cost is per 8 KB copied; partially filled packets copy less).
func (s *System) copyInstr(tuples int64) int64 {
	bytes := tuples * int64(s.cfg.TupleBytes)
	instr := s.cfg.Costs.Copy8KB * bytes / int64(s.cfg.Net.PacketBytes)
	if instr < s.cfg.Costs.Copy8KB/8 {
		instr = s.cfg.Costs.Copy8KB / 8 // header copy floor
	}
	return instr
}

// sendData transmits a data packet of tuples: sender pays SendMsg plus the
// proportional copy and the wire; the receiver pays on consumption via
// recvDataCPU.
func (s *System) sendData(p *sim.Proc, from, to int, tuples int64, deliver func()) {
	pe := s.pe(from)
	pe.compute(p, s.cfg.Costs.SendMsg+s.copyInstr(tuples))
	bytes := tuples * int64(s.cfg.TupleBytes)
	s.net.Send(p, from, to, bytes, deliver)
}

// recvDataCPU charges the receiver-side cost of one data packet.
func (s *System) recvDataCPU(p *sim.Proc, at int, tuples int64) {
	s.pe(at).compute(p, s.cfg.Costs.RecvMsg+s.copyInstr(tuples))
}

// sendCtl transmits a small control message, blocking the sender for its
// CPU cost and wire occupancy.
func (s *System) sendCtl(p *sim.Proc, from, to int, deliver func()) {
	s.pe(from).compute(p, s.cfg.Costs.SendMsg)
	s.net.Send(p, from, to, controlBytes, deliver)
}

// sendCtlAsync transmits a control message without blocking the caller,
// still charging the sender CPU through a helper process.
func (s *System) sendCtlAsync(from, to int, deliver func()) {
	s.k.Spawn("ctl-send", func(p *sim.Proc) {
		s.sendCtl(p, from, to, deliver)
	})
}

// recvCtlCPU charges the receiver-side cost of one control message.
func (s *System) recvCtlCPU(p *sim.Proc, at int) {
	s.pe(at).compute(p, s.cfg.Costs.RecvMsg)
}

// requestDecision models the round trip to the control node: the
// coordinator asks for a placement, the control node computes it (charging
// its CPU), and replies. Local requests skip the wire but still pay CPU.
func (s *System) requestDecision(p *sim.Proc, coordPE int) core.Decision {
	reply := sim.NewChan[core.Decision](s.k, "decision-reply")
	s.sendCtl(p, coordPE, s.ctrlPE, func() {
		s.k.Spawn("ctrl-decide", func(cp *sim.Proc) {
			s.recvCtlCPU(cp, s.ctrlPE)
			d := s.ctrl.Decide(s.strategy, s.qinfo, s.rng)
			s.pe(s.ctrlPE).compute(cp, ctrlDecideInstr)
			s.sendCtl(cp, s.ctrlPE, coordPE, func() {
				reply.Put(d)
			})
		})
	})
	d, _ := reply.Get(p)
	s.recvCtlCPU(p, coordPE)
	return d
}

// collect is a query coordinator's phase loop on PE at: it takes messages
// from mail until n completion messages of kind want have arrived, charging
// the control-message receive for each and the data receive for every
// result packet that streams in between. Any other kind is a protocol
// violation.
func (s *System) collect(p *sim.Proc, mail *sim.Chan[cmsg], at int, want cmsgKind, n int, phase string) {
	for done := 0; done < n; {
		m, _ := mail.Get(p)
		switch m.kind {
		case want:
			s.recvCtlCPU(p, at)
			done++
		case cmsgResult:
			s.recvDataCPU(p, at, m.tuples)
		default:
			panic(fmt.Sprintf("engine: %s unexpected %v during %s", mail.Name(), m.kind, phase))
		}
	}
}

// releaseRound is the read-only optimization's single commit round, which
// is also the abort round: the coordinator sends one message to every host
// (in the order given), each host releases txn's read locks and acks, and
// the coordinator waits for every ack.
func (s *System) releaseRound(p *sim.Proc, coordPE int, txn lock.TxnID, mail *sim.Chan[cmsg], hosts ...[]int) {
	participants := 0
	for _, list := range hosts {
		for _, host := range list {
			participants++
			s.sendCtl(p, coordPE, host, func() {
				s.k.Spawn("commit-participant", func(cp *sim.Proc) {
					s.recvCtlCPU(cp, host)
					s.pe(host).locks.ReleaseAll(txn)
					s.sendCtl(cp, host, coordPE, func() {
						mail.Put(cmsg{kind: cmsgAck, from: host})
					})
				})
			})
		}
	}
	for acks := 0; acks < participants; acks++ {
		m, _ := mail.Get(p)
		if m.kind != cmsgAck {
			panic(fmt.Sprintf("engine: %s unexpected %v during commit", mail.Name(), m.kind))
		}
		s.recvCtlCPU(p, coordPE)
	}
}
