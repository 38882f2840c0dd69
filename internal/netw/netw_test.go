package netw

import (
	"testing"
	"testing/quick"

	"dynlb/internal/sim"
)

func TestPacketsCalculation(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 2, Defaults())
	cases := []struct {
		bytes int64
		want  int
	}{
		{0, 1}, {1, 1}, {8192, 1}, {8193, 2}, {16384, 2}, {100_000, 13},
	}
	for _, c := range cases {
		if got := nw.Packets(c.bytes); got != c.want {
			t.Errorf("Packets(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestLocalDeliveryBypassesWire(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 2, Defaults())
	var elapsed sim.Time
	delivered := false
	k.Spawn("s", func(p *sim.Proc) {
		start := p.Now()
		nw.Send(p, 1, 1, 8192, func() { delivered = true })
		elapsed = p.Now() - start
	})
	k.RunAll()
	if !delivered {
		t.Fatal("local message not delivered")
	}
	if elapsed != 0 {
		t.Errorf("local send took %v, want 0", elapsed)
	}
	if nw.PacketsSent() != 0 {
		t.Errorf("local send put %d packets on wire", nw.PacketsSent())
	}
	if nw.LocalMsgs() != 1 {
		t.Errorf("localMsgs=%d", nw.LocalMsgs())
	}
}

func TestRemoteDeliveryTiming(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 2, Defaults())
	var deliveredAt sim.Time
	k.Spawn("s", func(p *sim.Proc) {
		nw.Send(p, 0, 1, 16384, func() { deliveredAt = k.Now() })
	})
	k.RunAll()
	// 2 packets * 0.4ms wire + 50us latency
	want := sim.FromMillis(0.8) + 50*sim.Microsecond
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestSenderLinkSerializes(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 3, Defaults())
	var done []sim.Time
	for i := 0; i < 2; i++ {
		k.Spawn("s", func(p *sim.Proc) {
			nw.Send(p, 0, 1+0, 8192, func() {})
			done = append(done, p.Now())
		})
	}
	k.RunAll()
	// same outbound link: second send waits for the first (0.4ms each)
	if done[0] != sim.FromMillis(0.4) || done[1] != sim.FromMillis(0.8) {
		t.Errorf("sends completed at %v, want [0.4ms 0.8ms]", done)
	}
}

func TestDistinctLinksParallel(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 3, Defaults())
	var done []sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("s", func(p *sim.Proc) {
			nw.Send(p, i, 2, 8192, func() {})
			done = append(done, p.Now())
		})
	}
	k.RunAll()
	if done[0] != done[1] {
		t.Errorf("sends from distinct PEs completed at %v, want simultaneous", done)
	}
}

func TestCounters(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 2, Defaults())
	k.Spawn("s", func(p *sim.Proc) {
		nw.Send(p, 0, 1, 20_000, func() {})
		nw.Send(p, 0, 0, 100, func() {})
	})
	k.RunAll()
	if nw.Msgs() != 2 {
		t.Errorf("msgs=%d, want 2", nw.Msgs())
	}
	if nw.PacketsSent() != 3 {
		t.Errorf("packets=%d, want 3", nw.PacketsSent())
	}
	if nw.Bytes() != 20_100 {
		t.Errorf("bytes=%d", nw.Bytes())
	}
}

func TestInvalidPEPanics(t *testing.T) {
	k := sim.NewKernel()
	nw := New(k, 2, Defaults())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range PE did not panic")
		}
	}()
	nw.SendFn(0, 5, 1, func() {}, func() {})
}

// Property: delivery count equals send count, and packet count matches the
// per-message packet arithmetic.
func TestQuickDeliveryConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel()
		nw := New(k, 4, Defaults())
		delivered := 0
		var wantPkts int64
		for i, sz := range sizes {
			from, to := i%4, (i+1)%4
			b := int64(sz)
			wantPkts += int64(nw.Packets(b))
			k.SpawnFn(func() {
				nw.SendFn(from, to, b, func() { delivered++ }, func() {})
			})
		}
		k.RunAll()
		return delivered == len(sizes) && nw.PacketsSent() == wantPkts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
