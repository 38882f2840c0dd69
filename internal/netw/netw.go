// Package netw models the communication network of the Shared Nothing
// system: messages are disassembled into fixed-size packets (8 KB by
// default, one database page), each occupying the sender's outbound link for
// a transmission time, then delivered after a fixed propagation latency.
//
// The paper charges communication CPU (send / receive / copy instructions,
// Fig. 4) at the processing nodes; that accounting is done by the engine's
// communication manager via the cost helpers here, keeping this package a
// pure wire model. Parameters follow the EDS prototype: the interconnect is
// fast and never the bottleneck in the reproduced experiments — the
// load-relevant cost of communication is the CPU overhead.
package netw

import (
	"fmt"

	"dynlb/internal/sim"
)

// Params configure the wire model.
type Params struct {
	PacketBytes   int          // fixed packet size (message disassembly unit)
	WirePerPacket sim.Duration // link occupancy per packet
	Latency       sim.Duration // propagation delay per message
}

// Defaults returns EDS-like parameters: 8 KB packets at 20 MB/s links
// (0.4 ms per packet) with 50 us propagation latency.
func Defaults() Params {
	return Params{
		PacketBytes:   8 * 1024,
		WirePerPacket: sim.FromMillis(0.4),
		Latency:       50 * sim.Microsecond,
	}
}

// Network connects n PEs with one outbound link server each.
type Network struct {
	k      *sim.Kernel
	links  []*sim.Server
	params Params

	msgs      int64
	packets   int64
	localMsgs int64
	bytes     int64
}

// New creates a network for n PEs.
func New(k *sim.Kernel, n int, p Params) *Network {
	if n < 1 {
		panic(fmt.Sprintf("netw: %d PEs", n))
	}
	if p.PacketBytes < 1 {
		panic("netw: packet size < 1")
	}
	nw := &Network{k: k, params: p}
	for i := 0; i < n; i++ {
		nw.links = append(nw.links, sim.NewServer(k, fmt.Sprintf("link%d", i), 1))
	}
	return nw
}

// Packets returns the number of packets a payload of the given size needs
// (at least 1: control messages occupy one packet).
func (nw *Network) Packets(bytes int64) int {
	if bytes <= 0 {
		return 1
	}
	return int((bytes + int64(nw.params.PacketBytes) - 1) / int64(nw.params.PacketBytes))
}

// Send transmits a message of the given payload size from PE from to PE to,
// blocking the calling process for the sender-side link occupancy, and runs
// deliver (in kernel context) once the message arrives. Messages between
// co-located processes bypass the wire and deliver immediately.
func (nw *Network) Send(p *sim.Proc, from, to int, bytes int64, deliver func()) {
	nw.check(from)
	nw.check(to)
	nw.msgs++
	nw.bytes += bytes
	if from == to {
		nw.localMsgs++
		deliver()
		return
	}
	pkts := nw.Packets(bytes)
	nw.packets += int64(pkts)
	nw.links[from].Use(p, sim.Duration(pkts)*nw.params.WirePerPacket)
	nw.k.After(nw.params.Latency, deliver)
}

func (nw *Network) check(pe int) {
	if pe < 0 || pe >= len(nw.links) {
		panic(fmt.Sprintf("netw: PE %d of %d", pe, len(nw.links)))
	}
}

// N returns the number of PEs.
func (nw *Network) N() int { return len(nw.links) }

// Msgs returns total messages sent (including local ones).
func (nw *Network) Msgs() int64 { return nw.msgs }

// LocalMsgs returns messages that bypassed the wire.
func (nw *Network) LocalMsgs() int64 { return nw.localMsgs }

// PacketsSent returns total packets put on the wire.
func (nw *Network) PacketsSent() int64 { return nw.packets }

// Bytes returns the total payload bytes offered.
func (nw *Network) Bytes() int64 { return nw.bytes }
