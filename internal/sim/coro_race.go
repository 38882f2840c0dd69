//go:build race

package sim

import (
	"iter"
	"runtime"
)

// pull is the race-detector build of the kernel's coroutine: the same
// contract as iter.Pull's next for a single caller — next runs seq until it
// yields or returns, and a panic or runtime.Goexit inside seq is re-raised
// in next's caller — carried by a goroutine and two channels.
//
// Under the race detector, Go 1.24 never releases the detector's state for
// a goroutine started by iter.Pull when it ends: up to about 128 KB per
// coroutine that switched often, so a race run of a test suite that
// simulates thousands of kernels grows by gigabytes. An ordinary goroutine
// releases that state when it exits.
func pull(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	// Capacity 1: a switch is one send that never blocks and one blocking
	// receive on the other side, not a rendezvous of both.
	resume := make(chan struct{}, 1)
	suspend := make(chan struct{}, 1)
	var done, exited bool
	var panicked any
	yield := func(struct{}) bool {
		suspend <- struct{}{}
		<-resume
		return true
	}
	go func() {
		returned := false
		defer func() {
			if r := recover(); r != nil {
				panicked = r
			} else if !returned {
				exited = true // runtime.Goexit
			}
			done = true
			suspend <- struct{}{}
		}()
		<-resume
		seq(yield)
		returned = true
	}()
	return func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		resume <- struct{}{}
		<-suspend
		if panicked != nil {
			panic(panicked)
		}
		if exited {
			runtime.Goexit()
		}
		return struct{}{}, !done
	}
}
