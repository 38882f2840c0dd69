package sim

import (
	"testing"
	"testing/quick"
)

func TestChanPutThenGet(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var got []int
	c.Put(1)
	c.Put(2)
	k.Spawn("r", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, ok := c.Get(p)
			if !ok {
				t.Error("Get returned !ok on open chan with data")
			}
			got = append(got, v)
		}
	})
	k.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("got %v, want [1 2]", got)
	}
}

func TestChanGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, "c")
	var at Time
	k.Spawn("r", func(p *Proc) {
		v, _ := c.Get(p)
		if v != "x" {
			t.Errorf("got %q", v)
		}
		at = p.Now()
	})
	k.Spawn("w", func(p *Proc) {
		p.Wait(7 * Millisecond)
		c.Put("x")
	})
	k.RunAll()
	if at != 7*Millisecond {
		t.Fatalf("reader resumed at %v, want 7ms", at)
	}
}

func TestChanMultipleReadersFCFS(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnAt(Time(i)*Microsecond, "r", func(p *Proc) {
			v, _ := c.Get(p)
			order = append(order, i*10+v)
		})
	}
	k.Spawn("w", func(p *Proc) {
		p.Wait(Millisecond)
		c.Put(0)
		c.Put(1)
		c.Put(2)
	})
	k.RunAll()
	// reader i (in arrival order) receives item i
	want := []int{0, 11, 22}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestChanClose(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	var results []bool
	k.Spawn("r", func(p *Proc) {
		c.Put(5)
		c.Close()
		_, ok1 := c.Get(p) // drains buffered item
		_, ok2 := c.Get(p) // closed and empty
		results = append(results, ok1, ok2)
	})
	k.RunAll()
	if !results[0] || results[1] {
		t.Fatalf("close semantics wrong: %v", results)
	}
}

func TestChanCloseWakesBlockedReaders(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("r", func(p *Proc) {
			if _, ok := c.Get(p); !ok {
				woken++
			}
		})
	}
	k.Spawn("closer", func(p *Proc) {
		p.Wait(Millisecond)
		c.Close()
	})
	k.RunAll()
	if woken != 3 {
		t.Fatalf("woken=%d, want 3", woken)
	}
	if k.Live() != 0 {
		t.Fatalf("live=%d, want 0", k.Live())
	}
}

func TestChanPutAfterClosePanics(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	c.Close()
	defer func() {
		if recover() == nil {
			t.Error("Put after Close did not panic")
		}
	}()
	c.Put(1)
}

func TestChanTryGet(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, "c")
	if _, ok := c.TryGet(); ok {
		t.Fatal("TryGet on empty chan succeeded")
	}
	c.Put(9)
	v, ok := c.TryGet()
	if !ok || v != 9 {
		t.Fatalf("TryGet = %v,%v", v, ok)
	}
}

// Property: a chan delivers every item exactly once and in FIFO order,
// regardless of interleaving of producer and consumer delays.
func TestQuickChanFIFO(t *testing.T) {
	f := func(delays []uint8) bool {
		k := NewKernel()
		c := NewChan[int](k, "c")
		n := len(delays)
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i, d := range delays {
				p.Wait(Duration(d) * Microsecond)
				c.Put(i)
			}
			c.Close()
		})
		k.Spawn("consumer", func(p *Proc) {
			for {
				v, ok := c.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		k.RunAll()
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
