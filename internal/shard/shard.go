// Package shard implements deterministic collection sharding with R-way
// replica placement — the step from "every node holds a full collection
// replica" to a genuinely distributed index.
//
// The unit of sharding is the sub-collection: the Boolean index of one
// sub-collection is fully self-contained (its postings, document
// frequencies and relaxation decisions reference nothing outside the sub),
// so retrieving a sub on a shard replica is bit-for-bit the computation the
// full-replica engine performs for that sub. Sub-collection i belongs to
// shard i mod K; replica j of shard s lives on node (s+j) mod N — chained
// declustering, so the loss of any single node removes at most one replica
// of each shard it held and the surviving replicas of consecutive shards
// land on different nodes.
//
// Collection *text* remains replicated on every node: it regenerates
// deterministically from the shared corpus.Config, and the serving path
// needs it everywhere (paragraph references resolve against global
// paragraph ids on whichever node runs answer processing). What sharding
// divides is the index — postings, term dictionary and paragraph term runs.
//
// The shard map (who holds which shard) is composed from holdings claims
// carried on the existing heartbeat channel and versioned by an epoch that
// bumps whenever the composed membership changes (node death, re-admission,
// new claims) — the cache-invalidation boundary for sharded answers.
package shard

import (
	"fmt"
	"sort"
)

// Normalize clamps a (K, R) configuration against a cluster of n nodes and
// a collection of totalSubs sub-collections: K is cut to the sub-collection
// count (more shards than subs would leave empty shards) and R to the node
// count (a replica set cannot exceed the cluster).
func Normalize(k, r, n, totalSubs int) (int, int, error) {
	if k <= 0 || r <= 0 {
		return 0, 0, fmt.Errorf("shard: invalid configuration K=%d R=%d", k, r)
	}
	if n <= 0 {
		return 0, 0, fmt.Errorf("shard: cluster size %d", n)
	}
	if totalSubs > 0 && k > totalSubs {
		k = totalSubs
	}
	if r > n {
		r = n
	}
	return k, r, nil
}

// OfSub returns the shard owning global sub-collection sub under a K-way
// partitioning.
func OfSub(sub, k int) int { return sub % k }

// SubsOf returns the global sub-collection ids belonging to shard s under a
// K-way partitioning of totalSubs sub-collections, ascending.
func SubsOf(s, k, totalSubs int) []int {
	var out []int
	for sub := s; sub < totalSubs; sub += k {
		out = append(out, sub)
	}
	return out
}

// Holdings returns the shards node nodeIndex holds in a clusterSize-node
// deployment with K shards and R replicas: replica j of shard s is placed
// on node (s+j) mod clusterSize (chained declustering). The result is
// ascending and deduplicated (when K > clusterSize a node naturally holds
// several shards; when R == clusterSize every node holds every shard — the
// pre-sharding full-replica topology).
func Holdings(nodeIndex, clusterSize, k, r int) []int {
	if nodeIndex < 0 || clusterSize <= 0 || nodeIndex >= clusterSize {
		return nil
	}
	if r > clusterSize {
		r = clusterSize
	}
	seen := make(map[int]bool)
	var out []int
	for s := 0; s < k; s++ {
		for j := 0; j < r; j++ {
			if (s+j)%clusterSize == nodeIndex && !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// HoldingSubs returns the global sub-collection ids node nodeIndex must
// index: the union of SubsOf over its Holdings, ascending — the exact
// argument for index.BuildSubset.
func HoldingSubs(nodeIndex, clusterSize, k, r, totalSubs int) []int {
	var out []int
	for _, s := range Holdings(nodeIndex, clusterSize, k, r) {
		out = append(out, SubsOf(s, k, totalSubs)...)
	}
	sort.Ints(out)
	return out
}

// ReplicaNodes returns the node indexes holding shard s, in placement order
// (replica 0 first).
func ReplicaNodes(s, clusterSize, r int) []int {
	if r > clusterSize {
		r = clusterSize
	}
	seen := make(map[int]bool)
	var out []int
	for j := 0; j < r; j++ {
		node := (s + j) % clusterSize
		if !seen[node] {
			seen[node] = true
			out = append(out, node)
		}
	}
	return out
}
