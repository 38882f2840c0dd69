// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. Each simulated process is a coroutine (iter.Pull); the
// kernel runs exactly one process at a time and orders all wake-ups on a
// single event calendar keyed by (time, sequence), so simulations are
// reproducible bit-for-bit for a given seed.
//
// The kernel replaces the DeNet simulation environment used by Rahm & Marek
// (VLDB '95). Processes model database operators and node services; shared
// resources are modelled with Server (multi-server FCFS queue), Store
// (counting resource with a FCFS wait queue) and Chan (mailbox).
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, in nanoseconds since simulation start.
// Integer nanoseconds keep arithmetic exact and runs reproducible.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration = Time

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds converts t to floating-point milliseconds, the unit used
// throughout the paper's figures.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Std converts t to a time.Duration for display.
func (t Time) Std() time.Duration { return time.Duration(t) }

func (t Time) String() string { return t.Std().String() }

// FromMillis builds a Duration from floating-point milliseconds.
func FromMillis(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// FromSeconds builds a Duration from floating-point seconds.
func FromSeconds(s float64) Duration { return Duration(s * float64(Second)) }

// Scale multiplies d by a non-negative factor, rounding to the nearest
// nanosecond. It panics on negative factors, which always indicate a bug in
// cost accounting.
func Scale(d Duration, f float64) Duration {
	if f < 0 {
		panic(fmt.Sprintf("sim: negative scale factor %g", f))
	}
	return Duration(float64(d)*f + 0.5)
}
