package sim

import "testing"

// pinnedCounters are the KernelStats fields the benchmark's per-layer
// kernel metrics are built from (events, handoffs, inline wakes and spawns
// per simulation). They count dispatch decisions, not the mechanism that
// carries them out, so a change to how a process switch is implemented
// must leave every one of them exactly as it was.
type pinnedCounters struct {
	Dispatched, InlineWakes, Handoffs, Spawns, SpawnReuses, LightSpawns int64
}

func pin(s KernelStats) pinnedCounters {
	return pinnedCounters{s.Dispatched, s.InlineWakes, s.Handoffs, s.Spawns, s.SpawnReuses, s.LightSpawns}
}

// TestKernelCountersPinned asserts exact counter values for the two
// reference workloads — soupTrace with the fast path on and off, modelTrace
// pooled, unpooled and with every process-model feature on — at seeds 1-5.
// The expected values were recorded with the channel-handoff kernel that
// preceded the coroutine switch.
func TestKernelCountersPinned(t *testing.T) {
	soup := map[bool][5]pinnedCounters{
		true: {
			{244, 2, 222, 41, 0, 0},
			{246, 3, 223, 41, 0, 0},
			{243, 4, 219, 41, 0, 0},
			{236, 3, 213, 41, 0, 0},
			{242, 3, 219, 41, 0, 0},
		},
		false: {
			{244, 0, 224, 41, 0, 0},
			{246, 0, 226, 41, 0, 0},
			{243, 0, 223, 41, 0, 0},
			{236, 0, 216, 41, 0, 0},
			{242, 0, 222, 41, 0, 0},
		},
	}
	model := map[string][5]pinnedCounters{
		"pooled": {
			{297, 10, 287, 81, 39, 0},
			{299, 5, 294, 81, 39, 0},
			{296, 10, 286, 81, 38, 0},
			{293, 8, 285, 81, 39, 0},
			{300, 12, 288, 81, 38, 0},
		},
		"unpooled": {
			{297, 10, 287, 81, 0, 0},
			{299, 5, 294, 81, 0, 0},
			{296, 10, 286, 81, 0, 0},
			{293, 8, 285, 81, 0, 0},
			{300, 12, 288, 81, 0, 0},
		},
		"all": {
			{297, 1, 197, 41, 0, 40},
			{299, 0, 199, 41, 0, 40},
			{296, 0, 199, 41, 0, 40},
			{293, 1, 197, 41, 0, 40},
			{300, 0, 199, 41, 0, 40},
		},
	}
	for seed := int64(1); seed <= 5; seed++ {
		for inline, want := range soup {
			if _, s := soupRun(seed, inline); pin(s) != want[seed-1] {
				t.Errorf("soup inline=%v seed %d: counters %+v, want %+v", inline, seed, pin(s), want[seed-1])
			}
		}
		for name, want := range model {
			pooled, all := name != "unpooled", name == "all"
			if _, s := modelRun(seed, pooled, all, all); pin(s) != want[seed-1] {
				t.Errorf("model %s seed %d: counters %+v, want %+v", name, seed, pin(s), want[seed-1])
			}
		}
	}
}
