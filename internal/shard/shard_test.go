package shard

import (
	"reflect"
	"testing"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		k, r, n, subs int
		wantK, wantR  int
		wantErr       bool
	}{
		{k: 4, r: 2, n: 3, subs: 8, wantK: 4, wantR: 2},
		{k: 8, r: 2, n: 3, subs: 4, wantK: 4, wantR: 2}, // K clamped to subs
		{k: 2, r: 5, n: 3, subs: 8, wantK: 2, wantR: 3}, // R clamped to nodes
		{k: 0, r: 1, n: 3, subs: 8, wantErr: true},
		{k: 1, r: 0, n: 3, subs: 8, wantErr: true},
		{k: 1, r: 1, n: 0, subs: 8, wantErr: true},
	}
	for _, c := range cases {
		k, r, err := Normalize(c.k, c.r, c.n, c.subs)
		if c.wantErr {
			if err == nil {
				t.Fatalf("Normalize(%d,%d,%d,%d): expected error", c.k, c.r, c.n, c.subs)
			}
			continue
		}
		if err != nil || k != c.wantK || r != c.wantR {
			t.Fatalf("Normalize(%d,%d,%d,%d) = (%d,%d,%v), want (%d,%d)", c.k, c.r, c.n, c.subs, k, r, err, c.wantK, c.wantR)
		}
	}
}

func TestPlacement(t *testing.T) {
	// 4 shards, 2 replicas, 3 nodes: replica j of shard s on node (s+j)%3.
	// shard 0 -> nodes {0,1}; 1 -> {1,2}; 2 -> {2,0}; 3 -> {0,1}.
	want := map[int][]int{
		0: {0, 2, 3},
		1: {0, 1, 3},
		2: {1, 2},
	}
	for node := 0; node < 3; node++ {
		if got := Holdings(node, 3, 4, 2); !reflect.DeepEqual(got, want[node]) {
			t.Fatalf("Holdings(node=%d) = %v, want %v", node, got, want[node])
		}
	}
	// Every shard must reach R distinct nodes.
	for s := 0; s < 4; s++ {
		if got := ReplicaNodes(s, 3, 2); len(got) != 2 {
			t.Fatalf("ReplicaNodes(%d) = %v, want 2 distinct nodes", s, got)
		}
	}
	// R == clusterSize degenerates to full replication.
	for node := 0; node < 3; node++ {
		if got := Holdings(node, 3, 4, 3); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
			t.Fatalf("full replication Holdings(node=%d) = %v", node, got)
		}
	}
}

func TestSubsOfPartition(t *testing.T) {
	// The shards of a K-way partition must cover every sub exactly once.
	for _, k := range []int{1, 2, 3, 4, 7} {
		const totalSubs = 8
		seen := make(map[int]int)
		for s := 0; s < k; s++ {
			for _, sub := range SubsOf(s, k, totalSubs) {
				if OfSub(sub, k) != s {
					t.Fatalf("OfSub(%d,%d) != %d", sub, k, s)
				}
				seen[sub]++
			}
		}
		for sub := 0; sub < totalSubs; sub++ {
			if seen[sub] != 1 {
				t.Fatalf("K=%d: sub %d covered %d times", k, sub, seen[sub])
			}
		}
	}
}

func TestHoldingSubsUnion(t *testing.T) {
	// Across the cluster, HoldingSubs must cover every sub at least R times
	// (exactly R when K <= N).
	const k, r, n, totalSubs = 4, 2, 3, 8
	count := make(map[int]int)
	for node := 0; node < n; node++ {
		for _, sub := range HoldingSubs(node, n, k, r, totalSubs) {
			count[sub]++
		}
	}
	for sub := 0; sub < totalSubs; sub++ {
		if count[sub] < r {
			t.Fatalf("sub %d held %d times, want >= %d", sub, count[sub], r)
		}
	}
}

func TestTrackerEpoch(t *testing.T) {
	tr := NewTracker(2)
	m0 := tr.Current()
	if m0.Epoch != 0 || m0.Complete() {
		t.Fatalf("fresh tracker: %+v", m0)
	}

	claims := map[string][]int{
		"a:1": {0},
		"b:1": {1},
	}
	m1 := tr.Update(claims)
	if m1.Epoch != 1 || !m1.Complete() {
		t.Fatalf("first composition: epoch=%d complete=%v", m1.Epoch, m1.Complete())
	}
	// Steady state: same claims, no bump.
	m2 := tr.Update(claims)
	if m2.Epoch != 1 {
		t.Fatalf("steady-state bumped epoch to %d", m2.Epoch)
	}
	// Node death: claim disappears -> bump, map incomplete.
	m3 := tr.Update(map[string][]int{"a:1": {0}})
	if m3.Epoch != 2 || m3.Complete() {
		t.Fatalf("death: epoch=%d complete=%v", m3.Epoch, m3.Complete())
	}
	if missing := m3.Missing(); !reflect.DeepEqual(missing, []int{1}) {
		t.Fatalf("missing = %v", missing)
	}
	// Re-admission: claim returns -> bump again.
	m4 := tr.Update(claims)
	if m4.Epoch != 3 || !m4.Complete() {
		t.Fatalf("re-admission: epoch=%d complete=%v", m4.Epoch, m4.Complete())
	}
	// Out-of-range claims are ignored, not crashed on.
	m5 := tr.Update(map[string][]int{"a:1": {0, 99, -1}, "b:1": {1}})
	if !m5.Complete() {
		t.Fatalf("out-of-range claim broke composition: %+v", m5)
	}
	if m5.Epoch != 3 {
		t.Fatalf("out-of-range claims changed the placement: epoch=%d", m5.Epoch)
	}
	// Two holders trading shards keep the replica count but change the
	// placement -> bump.
	m6 := tr.Update(map[string][]int{"a:1": {1}, "b:1": {0}})
	if m6.Epoch != 4 || m6.Replicas[0][0] != "b:1" {
		t.Fatalf("swap: epoch=%d replicas=%v", m6.Epoch, m6.Replicas)
	}
	// A repeated claim lists its holder twice, which is a different
	// placement from listing it once.
	m7 := tr.Update(map[string][]int{"a:1": {1, 1}})
	if m7.Epoch != 5 || !reflect.DeepEqual(m7.Replicas[1], []string{"a:1", "a:1"}) {
		t.Fatalf("repeated claim: epoch=%d replicas=%v", m7.Epoch, m7.Replicas)
	}
	if m8 := tr.Update(map[string][]int{"a:1": {1}, "b:1": {1}}); m8.Epoch != 6 {
		t.Fatalf("claims matching the repeated placement's size: epoch=%d", m8.Epoch)
	}
}
