package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dynlb/internal/config"
	"dynlb/internal/core"
	"dynlb/internal/sim"
)

func TestWindowedMetricsBasics(t *testing.T) {
	cfg := quickCfg()
	cfg.MetricsWindow = sim.Second
	res := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()

	if len(res.Windows) != 10 {
		t.Fatalf("got %d windows for a 10s measurement at 1s width, want 10", len(res.Windows))
	}
	if res.WindowMS != 1000 {
		t.Errorf("WindowMS = %v, want 1000", res.WindowMS)
	}
	joins := 0
	for i, w := range res.Windows {
		if w.StartMS != float64(i*1000) || w.EndMS != float64((i+1)*1000) {
			t.Errorf("window %d spans [%v, %v] ms, want [%d, %d]", i, w.StartMS, w.EndMS, i*1000, (i+1)*1000)
		}
		// Throughput must be joins over the window width, exactly.
		if want := float64(w.Joins); math.Abs(w.JoinTPS-want) > 1e-9 {
			t.Errorf("window %d: tps %v inconsistent with %d joins in 1s", i, w.JoinTPS, w.Joins)
		}
		if w.Joins > 0 && (w.RTMeanMS <= 0 || w.RTP95MS < w.RTMeanMS/2) {
			t.Errorf("window %d: rt mean %v p95 %v", i, w.RTMeanMS, w.RTP95MS)
		}
		for _, u := range []float64{w.CPUUtil, w.DiskUtil, w.MemUtil} {
			if u < 0 || u > 1 {
				t.Errorf("window %d: utilization %v outside [0,1]", i, u)
			}
		}
		joins += w.Joins
	}
	// Every measured completion lands in exactly one window.
	if joins != res.JoinRT.N {
		t.Errorf("windows count %d joins, run measured %d", joins, res.JoinRT.N)
	}
	if res.PeakWindowRTMS <= 0 {
		t.Errorf("peak window rt %v", res.PeakWindowRTMS)
	}
}

// TestWindowsDoNotPerturbRun: window boundary events consume no randomness
// and touch no simulated resource, so enabling them must leave the
// simulation itself bit-identical — only the report grows.
func TestWindowsDoNotPerturbRun(t *testing.T) {
	plain := MustNew(quickCfg(), core.MustByName("OPT-IO-CPU")).Run()
	cfg := quickCfg()
	cfg.MetricsWindow = 500 * sim.Millisecond
	windowed := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()

	if plain.JoinsDone != windowed.JoinsDone || plain.JoinRT.MeanMS != windowed.JoinRT.MeanMS ||
		plain.TempIOPages != windowed.TempIOPages || plain.CPUUtil != windowed.CPUUtil {
		t.Fatalf("windowed run diverged from plain run:\nplain:    %+v\nwindowed: %+v",
			plain.JoinRT, windowed.JoinRT)
	}
	if len(windowed.Windows) != 20 {
		t.Errorf("got %d windows at 500ms over 10s, want 20", len(windowed.Windows))
	}
}

// TestConstantProfileBitIdentical: an explicit constant profile takes the
// same arrival code path bit for bit — the issue's acceptance criterion for
// backward compatibility.
func TestConstantProfileBitIdentical(t *testing.T) {
	plain := MustNew(quickCfg(), core.MustByName("OPT-IO-CPU")).Run()
	cfg := quickCfg()
	cfg.Profile = config.ConstantProfile()
	withProfile := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()

	if plain.JoinsDone != withProfile.JoinsDone || plain.JoinRT.MeanMS != withProfile.JoinRT.MeanMS ||
		plain.JoinRT.P95MS != withProfile.JoinRT.P95MS || plain.TempIOPages != withProfile.TempIOPages ||
		plain.CPUUtil != withProfile.CPUUtil || plain.DiskUtil != withProfile.DiskUtil {
		t.Fatalf("constant profile diverged from no profile:\nplain: %+v\nconst: %+v", plain, withProfile)
	}
}

// TestBurstProfileShiftsLoad: a flash crowd multiplies the arrival rate, so
// the run completes far more joins than the steady workload, and the
// mounting queueing delay tilts completions toward the later windows.
func TestBurstProfileShiftsLoad(t *testing.T) {
	steady := MustNew(quickCfg(), core.MustByName("OPT-IO-CPU")).Run()

	cfg := quickCfg()
	cfg.Profile = config.FlashCrowd(0, 10*sim.Second, 5, 0)
	cfg.MetricsWindow = sim.Second
	burst := MustNew(cfg, core.MustByName("OPT-IO-CPU")).Run()

	if burst.JoinsDone < 2*steady.JoinsDone {
		t.Errorf("5x flash crowd completed %d joins, steady %d — burst should add load",
			burst.JoinsDone, steady.JoinsDone)
	}
	// The overload builds a queue, so response times — and with them the
	// derived peak — must climb well above the steady mean.
	if burst.PeakWindowRTMS < 2*steady.JoinRT.MeanMS {
		t.Errorf("peak window rt %v under 5x load vs steady mean %v", burst.PeakWindowRTMS, steady.JoinRT.MeanMS)
	}
	var firstHalf, secondHalf int
	for _, w := range burst.Windows {
		if w.EndMS <= 5000 {
			firstHalf += w.Joins
		} else {
			secondHalf += w.Joins
		}
	}
	if secondHalf <= firstHalf {
		t.Errorf("completions first half %d vs second half %d — queue growth not visible in windows",
			firstHalf, secondHalf)
	}
}

// TestJoinMailboxClosedPanics: a join-phase mailbox closing before the
// end-of-phase marker is a protocol violation the join process must name
// loudly, not a zero message three frames later.
func TestJoinMailboxClosedPanics(t *testing.T) {
	k := sim.NewKernel()
	mail := sim.NewChan[jmsg](k, "m")
	var msg string
	k.Spawn("join", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		nextJoinMsg(p, mail, 7, 3) // blocks empty, then the close wakes it with ok=false
	})
	k.Spawn("closer", func(p *sim.Proc) {
		p.Wait(sim.Millisecond)
		mail.Close()
	})
	k.RunAll()
	if msg == "" {
		t.Fatal("closed mailbox did not panic the join process")
	}
	for _, want := range []string{"protocol violation", "q7/join3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message %q missing %q", msg, want)
		}
	}
}
