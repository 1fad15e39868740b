package shard

import (
	"slices"
	"sort"
	"sync"
)

// Map is one node's composed view of shard placement: which live nodes
// claim which shards, versioned by an epoch. Maps are value snapshots —
// safe to read concurrently, never mutated after composition.
type Map struct {
	// K is the shard count the map was composed under.
	K int
	// Epoch increments whenever the composed placement changes (a holder
	// appears, disappears or changes its claim). Cached sharded answers are
	// keyed by epoch, so a placement change invalidates them wholesale.
	Epoch int64
	// Replicas[s] lists the addresses claiming shard s, sorted. Empty for a
	// shard no live node claims — an incomplete map.
	Replicas [][]string
}

// Complete reports whether every shard has at least one claimed replica.
func (m Map) Complete() bool {
	if m.K == 0 || len(m.Replicas) < m.K {
		return false
	}
	for _, rs := range m.Replicas {
		if len(rs) == 0 {
			return false
		}
	}
	return true
}

// Missing returns the shards with no claimed replica, ascending.
func (m Map) Missing() []int {
	var out []int
	for s := 0; s < m.K; s++ {
		if s >= len(m.Replicas) || len(m.Replicas[s]) == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Tracker composes holdings claims (self + heartbeat-fresh peers) into the
// current shard Map and owns the epoch: the epoch bumps exactly when the
// composed placement changes. Each node runs its own tracker — epochs are
// node-local versions of a node-local view, not a consensus value; they
// only need to change when the view changes, which is what cache
// invalidation requires.
type Tracker struct {
	mu    sync.Mutex
	k     int
	epoch int64
	cur   Map
}

// NewTracker creates a tracker for a K-shard deployment.
func NewTracker(k int) *Tracker {
	t := &Tracker{k: k}
	t.cur = Map{K: k, Epoch: 0, Replicas: make([][]string, k)}
	return t
}

// Update recomposes the map from the given claims (address -> shards held)
// and returns the resulting snapshot. The epoch bumps iff the placement
// changed since the last composition — a dead node dropping out of the
// claims, a restarted node re-appearing, or a claim changing shape all
// bump; steady-state heartbeats do not, and return the current snapshot
// without composing a new one (every question recomposes, so the steady
// state must not allocate).
func (t *Tracker) Update(claims map[string][]int) Map {
	t.mu.Lock()
	if t.matches(claims) {
		defer t.mu.Unlock()
		return t.cur
	}
	t.mu.Unlock()
	replicas := make([][]string, t.k)
	for addr, shards := range claims {
		for _, s := range shards {
			if s < 0 || s >= t.k {
				continue
			}
			replicas[s] = append(replicas[s], addr)
		}
	}
	for s := range replicas {
		sort.Strings(replicas[s])
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if !slices.EqualFunc(replicas, t.cur.Replicas, slices.Equal[[]string]) {
		t.epoch++
	}
	t.cur = Map{K: t.k, Epoch: t.epoch, Replicas: replicas}
	return t.cur
}

// matches reports whether claims compose exactly the current placement:
// every in-range (address, shard) claim is a listed replica, and the claims
// account for every listed replica. Caller holds t.mu.
func (t *Tracker) matches(claims map[string][]int) bool {
	pairs := 0
	for addr, shards := range claims {
		for i, s := range shards {
			if s < 0 || s >= t.k {
				continue
			}
			if slices.Contains(shards[:i], s) {
				// A repeated claim lists the holder twice; let the full
				// composition decide.
				return false
			}
			if !slices.Contains(t.cur.Replicas[s], addr) {
				return false
			}
			pairs++
		}
	}
	listed := 0
	for _, rs := range t.cur.Replicas {
		listed += len(rs)
	}
	return pairs == listed
}

// Current returns the latest composed snapshot.
func (t *Tracker) Current() Map {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}
