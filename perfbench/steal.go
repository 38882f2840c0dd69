package main

import (
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The hypervisor of a virtual machine can take CPU time from it ("steal")
// whenever other machines on the host want it, which stretches every
// CPU-bound measurement by an amount that has nothing to do with the code.
// The kernel counts stolen time in /proc/stat. The benchmark samples that
// counter through the run and subtracts the stolen time from its timings:
// an interval of wall time d during which the machine's vCPUs lost s of CPU
// time counts as d - s/nproc, the time the work would have taken had the
// vCPUs been free. Raw timings and the stolen shares are kept in the run's
// record.

// tick is the unit of /proc/stat (USER_HZ, 100 on Linux).
const tick = 10 * time.Millisecond

// stealTicks is the machine's cumulative stolen CPU time in ticks (the
// steal column of the cpu line of /proc/stat), or -1 where it cannot be
// read.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return -1
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// stealSampler reads the steal counter periodically in the background so
// the stolen time of any interval of the run can be estimated afterwards.
// A nil *stealSampler estimates no steal.
type stealSampler struct {
	cpus int
	stop chan struct{}
	done chan struct{}

	mu    sync.Mutex
	at    []time.Time
	ticks []int64
}

// startStealSampler samples every period until stopSampling. It returns nil
// where steal cannot be read.
func startStealSampler(period time.Duration, cpus int) *stealSampler {
	if stealTicks() < 0 {
		return nil
	}
	s := &stealSampler{cpus: cpus, stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *stealSampler) sample() {
	n := stealTicks()
	now := time.Now()
	s.mu.Lock()
	s.at = append(s.at, now)
	s.ticks = append(s.ticks, n)
	s.mu.Unlock()
}

// stopSampling takes a last sample, ends sampling and waits for the sampler
// to exit.
func (s *stealSampler) stopSampling() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// counter is the steal counter at t in ticks, interpolated linearly
// between the samples around t.
func (s *stealSampler) counter(t time.Time) float64 {
	i := 0
	for i+1 < len(s.at) && !s.at[i+1].After(t) {
		i++
	}
	if i+1 >= len(s.at) || t.Before(s.at[i]) {
		return float64(s.ticks[i])
	}
	span := s.at[i+1].Sub(s.at[i])
	frac := float64(t.Sub(s.at[i])) / float64(span)
	return float64(s.ticks[i]) + frac*float64(s.ticks[i+1]-s.ticks[i])
}

// stolen estimates the CPU time stolen from the machine between from and
// from+d.
func (s *stealSampler) stolen(from time.Time, d time.Duration) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.at) < 2 {
		return 0
	}
	return time.Duration((s.counter(from.Add(d)) - s.counter(from)) * float64(tick))
}

// ticksBetween is the stolen CPU time, in ticks, counted between the last
// sample at or before from and the first sample at or after to: 0 means no
// tick of stolen time fell anywhere near [from, to].
func (s *stealSampler) ticksBetween(from, to time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lo, hi := 0, len(s.at)-1
	for i, t := range s.at {
		if !t.After(from) {
			lo = i
		}
		if !t.Before(to) {
			hi = i
			break
		}
	}
	return s.ticks[hi] - s.ticks[lo]
}

// adjust is d minus the CPU time stolen during [from, from+d] spread over
// the machine's vCPUs, and never below a tenth of d.
func (s *stealSampler) adjust(from time.Time, d time.Duration) time.Duration {
	if s == nil {
		return d
	}
	adj := d - s.stolen(from, d)/time.Duration(s.cpus)
	if adj < d/10 {
		adj = d / 10
	}
	return adj
}

// share is the stolen share of the machine's CPU time during [from,
// from+d].
func (s *stealSampler) share(from time.Time, d time.Duration) float64 {
	if s == nil || d <= 0 {
		return 0
	}
	return float64(s.stolen(from, d)) / (float64(s.cpus) * float64(d))
}
