//go:build !race

package sim

import "iter"

// pull starts a coroutine running seq and returns the function that resumes
// it: iter.Pull, whose stop function the kernel never needs (a coroutine
// ends by returning from seq).
func pull(seq iter.Seq[struct{}]) func() (struct{}, bool) {
	next, _ := iter.Pull(seq)
	return next
}
