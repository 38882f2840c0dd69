package sim

import "testing"

// pinnedCounters are the KernelStats fields the benchmark's per-layer
// kernel metrics are built from (events, handoffs, inline wakes and spawns
// per simulation). Dispatched, Spawns and SpawnReuses count the event
// sequence and the process model, so only a change to the model may move
// them. InlineWakes and Handoffs count how often a process is resumed; they
// fall when the kernel does a process's step itself (a server grant, a
// route's stage change), and change with nothing else.
type pinnedCounters struct {
	Dispatched, InlineWakes, Handoffs, Spawns, SpawnReuses int64
}

func pin(s KernelStats) pinnedCounters {
	return pinnedCounters{s.Dispatched, s.InlineWakes, s.Handoffs, s.Spawns, s.SpawnReuses}
}

// TestKernelCountersPinned asserts exact counter values for the two
// reference workloads, soupRun and modelRun, at seeds 1-5. Dispatched,
// Spawns and SpawnReuses were recorded with the channel-handoff kernel that
// preceded the coroutine switch; InlineWakes and Handoffs with the kernel
// that grants a queued Server.Use in kernel context.
func TestKernelCountersPinned(t *testing.T) {
	soup := [5]pinnedCounters{
		{244, 0, 187, 41, 0},
		{246, 1, 189, 41, 0},
		{243, 2, 184, 41, 0},
		{236, 3, 176, 41, 0},
		{242, 0, 184, 41, 0},
	}
	model := [5]pinnedCounters{
		{297, 6, 235, 81, 39},
		{299, 1, 240, 81, 39},
		{296, 5, 236, 81, 38},
		{293, 4, 237, 81, 39},
		{300, 5, 236, 81, 38},
	}
	for seed := int64(1); seed <= 5; seed++ {
		if s := pin(soupRun(seed)); s != soup[seed-1] {
			t.Errorf("soup seed %d: counters %+v, want %+v", seed, s, soup[seed-1])
		}
		if s := pin(modelRun(seed)); s != model[seed-1] {
			t.Errorf("model seed %d: counters %+v, want %+v", seed, s, model[seed-1])
		}
	}
}
