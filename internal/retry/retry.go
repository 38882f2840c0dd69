// Package retry provides the deterministic capped exponential backoff
// policy shared by the simulation engine's fault-retry path (aborted
// attempts re-entering the arrival flow after a simulated PE crash) and the
// distributed coordinator's re-dispatch path (jobs re-sent after a worker
// death or timeout).
//
// The policy is intentionally jitter-free: the engine schedules backoff in
// simulated time, where any randomness would perturb the seed-deterministic
// event stream, and the coordinator's correctness never depends on delay
// spreading (jobs re-dispatch to a different worker, not the same one).
package retry

import "time"

// Backoff is a capped exponential backoff policy: the delay before retry
// attempt n (0-based) is Base·2ⁿ, saturating at Cap. The zero value is
// degenerate (all delays 0); both fields should be positive with Cap >=
// Base.
type Backoff struct {
	Base time.Duration // delay before the first retry (attempt 0)
	Cap  time.Duration // upper bound the doubling saturates at
}

// Delay returns the backoff before retry attempt n (0-based). Negative
// attempts are treated as 0. The doubling loop stops at Cap, so large
// attempt counts can never overflow into negative delays.
func (b Backoff) Delay(attempt int) time.Duration {
	d := b.Base
	if d > b.Cap {
		return b.Cap
	}
	for ; attempt > 0 && d < b.Cap; attempt-- {
		d <<= 1
	}
	if d > b.Cap {
		d = b.Cap
	}
	return d
}
