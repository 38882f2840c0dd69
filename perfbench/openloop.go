package main

import (
	"context"
	"sync"
	"time"
)

// opSample is one open-loop operation, times relative to the loop's start.
type opSample struct {
	Due, Sent, Done time.Duration
	Err             error
}

// latency is measured from when the operation was due, so a stall also
// charges the operations that queued behind it.
func (s opSample) latency() time.Duration { return s.Done - s.Due }

// lateness is how far behind schedule the generator sent the operation.
func (s opSample) lateness() time.Duration { return s.Sent - s.Due }

// openLoop issues operation i at due[i] (offsets from now, ascending)
// whether or not earlier operations have finished, and returns once every
// issued operation has. Operations not yet sent when ctx ends are skipped
// and reported with ctx's error.
func openLoop(ctx context.Context, due []time.Duration, do func(i int) error) []opSample {
	out := make([]opSample, len(due))
	start := time.Now()
	var wg sync.WaitGroup
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, d := range due {
		out[i].Due = d
		if wait := d - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				for j := i; j < len(due); j++ {
					out[j] = opSample{Due: due[j], Err: ctx.Err()}
				}
				wg.Wait()
				return out
			case <-timer.C:
			}
		}
		out[i].Sent = time.Since(start)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := do(i)
			out[i].Done = time.Since(start)
			out[i].Err = err
		}(i)
	}
	wg.Wait()
	return out
}
