//go:build !race

package shard

import "testing"

// TestTrackerSteadyStateAllocs pins the per-question cost of recomposing an
// unchanged shard map: every sharded ask calls Update, so the steady state
// must return the current snapshot without building a new one.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	tr := NewTracker(4)
	claims := map[string][]int{"a:1": {0}, "b:1": {1}, "c:1": {2}, "d:1": {3, 0}}
	want := tr.Update(claims)
	allocs := testing.AllocsPerRun(100, func() {
		if m := tr.Update(claims); m.Epoch != want.Epoch {
			t.Fatalf("steady state bumped epoch to %d", m.Epoch)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Update allocates %.1f times, want 0", allocs)
	}
}
