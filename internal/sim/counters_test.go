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
// reference workloads — soupTrace with the fast path on and off, modelTrace
// pooled and unpooled — at seeds 1-5. Dispatched, Spawns and SpawnReuses
// were recorded with the channel-handoff kernel that preceded the coroutine
// switch; InlineWakes and Handoffs with the kernel that grants a queued
// Server.Use in kernel context.
func TestKernelCountersPinned(t *testing.T) {
	soup := map[bool][5]pinnedCounters{
		true: {
			{244, 0, 187, 41, 0},
			{246, 1, 189, 41, 0},
			{243, 2, 184, 41, 0},
			{236, 3, 176, 41, 0},
			{242, 0, 184, 41, 0},
		},
		false: {
			{244, 0, 187, 41, 0},
			{246, 0, 190, 41, 0},
			{243, 0, 186, 41, 0},
			{236, 0, 179, 41, 0},
			{242, 0, 184, 41, 0},
		},
	}
	model := map[string][5]pinnedCounters{
		"pooled": {
			{297, 6, 235, 81, 39},
			{299, 1, 240, 81, 39},
			{296, 5, 236, 81, 38},
			{293, 4, 237, 81, 39},
			{300, 5, 236, 81, 38},
		},
		"unpooled": {
			{297, 6, 235, 81, 0},
			{299, 1, 240, 81, 0},
			{296, 5, 236, 81, 0},
			{293, 4, 237, 81, 0},
			{300, 5, 236, 81, 0},
		},
	}
	for seed := int64(1); seed <= 5; seed++ {
		for inline, want := range soup {
			if _, s := soupRun(seed, inline); pin(s) != want[seed-1] {
				t.Errorf("soup inline=%v seed %d: counters %+v, want %+v", inline, seed, pin(s), want[seed-1])
			}
		}
		for name, want := range model {
			if _, s := modelRun(seed, name == "pooled"); pin(s) != want[seed-1] {
				t.Errorf("model %s seed %d: counters %+v, want %+v", name, seed, pin(s), want[seed-1])
			}
		}
	}
}
