package sim

import (
	"testing"
	"testing/quick"
)

func TestStoreImmediateGrant(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 50)
	k.Spawn("p", func(p *Proc) {
		st.Get(p, 30)
		if st.Level() != 20 {
			t.Errorf("level=%d after get 30, want 20", st.Level())
		}
		st.Put(30)
	})
	k.RunAll()
	if st.Level() != 50 {
		t.Errorf("level=%d at end, want 50", st.Level())
	}
}

func TestStoreFCFSHeadBlocksSmallerRequests(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 10)
	var order []string
	k.SpawnAt(0, "big-holder", func(p *Proc) {
		st.Get(p, 8)
		p.Wait(20 * Millisecond)
		st.Put(8)
	})
	k.SpawnAt(1*Microsecond, "wants6", func(p *Proc) {
		st.Get(p, 6)
		order = append(order, "six")
		st.Put(6)
	})
	k.SpawnAt(2*Microsecond, "wants1", func(p *Proc) {
		st.Get(p, 1) // could fit immediately, but FCFS: must wait behind wants6
		order = append(order, "one")
		st.Put(1)
	})
	k.RunAll()
	if len(order) != 2 || order[0] != "six" || order[1] != "one" {
		t.Fatalf("grant order %v; FCFS store must not leapfrog the head waiter", order)
	}
}

func TestStoreOverfillPanics(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 5)
	defer func() {
		if recover() == nil {
			t.Error("overfill did not panic")
		}
	}()
	st.Put(1)
}

func TestStoreGetMoreThanCapPanics(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 5)
	panicked := false
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		st.Get(p, 6)
	})
	k.RunAll()
	if !panicked {
		t.Error("get > cap did not panic")
	}
}

func TestStoreUtilization(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 10)
	k.Spawn("p", func(p *Proc) {
		st.Get(p, 5)
		p.Wait(100 * Millisecond)
		st.Put(5)
	})
	k.Run(100 * Millisecond)
	u := st.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization=%v, want 0.5", u)
	}
}

func TestStoreMultipleWaitersDrainInOrder(t *testing.T) {
	k := NewKernel()
	st := NewStore(k, "mem", 6)
	var order []int
	k.Spawn("holder", func(p *Proc) {
		st.Get(p, 6)
		p.Wait(5 * Millisecond)
		st.Put(6)
	})
	for i := 0; i < 3; i++ {
		i := i
		k.SpawnAt(Time(i+1)*Microsecond, "w", func(p *Proc) {
			st.Get(p, 2)
			order = append(order, i)
			st.Put(2)
		})
	}
	k.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("drain order %v not FCFS", order)
		}
	}
}

// Property: the store never goes negative and conservation holds — after all
// processes complete (each puts back what it got), level == cap.
func TestQuickStoreConservation(t *testing.T) {
	f := func(reqs []uint8) bool {
		k := NewKernel()
		st := NewStore(k, "mem", 100)
		for _, r := range reqs {
			n := int(r)%100 + 1
			k.Spawn("p", func(p *Proc) {
				st.Get(p, n)
				if st.Level() < 0 {
					t.Fatal("negative store level")
				}
				p.Wait(Duration(n) * Microsecond)
				st.Put(n)
			})
		}
		k.RunAll()
		return st.Level() == 100 && st.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
