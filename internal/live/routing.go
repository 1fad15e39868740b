package live

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distqa/internal/obs"
	"distqa/internal/shard"
)

// Selective shard routing (PR-7). Every sharded node builds a term summary of
// each shard it holds (shard.BuildSummary: a bloom filter over the shard's
// vocabulary plus a capped df sketch) and advertises the summary *versions* on
// its regular heartbeats (LoadReport.SumVers — a few varints, never the
// bodies). A peer that sees a version it has not stored pulls the summary once
// (kindShardSummary); since versions are content checksums, replicas of the
// same shard advertise the same version and the pull happens once per content
// change, not once per beat — the gossip is incremental by construction.
//
// At question time the coordinator plans the scatter (shard.PlanRoute): a
// shard whose summary proves that no query keyword occurs anywhere in it is
// skipped — byte-identical to asking it, because Boolean-AND retrieval returns
// nothing at every relaxation level when every keyword's postings list is
// empty. Shards without a usable summary fall back to scatter, so correctness
// never depends on gossip progress.
//
// Staleness is epoch-scoped and deterministic: a stored summary is stamped
// with the shard-map epoch at store time and is usable only while the stamp
// matches the current epoch. When the map changes (node death, re-admission),
// every stored summary goes stale at once, the next question falls back to a
// full scatter for the non-held shards, and that scatter's successful gather
// revalidates the store (re-stamping summaries whose holder is still in the
// map) — so exactly one routed question pays the fallback per epoch bump,
// regardless of heartbeat interleaving. Local summaries describe this node's
// own immutable index and are never stale.

// RoutingConfig tunes selective shard routing (meaningful only with
// ShardConfig.K > 0). The zero value enables routing with the shard package's
// default summary caps.
type RoutingConfig struct {
	// Disabled pins the node to full scatter: no summaries are built,
	// gossiped, served or consulted (benchmark comparisons, kill switch).
	Disabled bool
	// SummaryBytes caps each summary's bloom filter
	// (default shard.DefaultFilterBytes).
	SummaryBytes int
	// TopTerms caps each summary's df sketch (default shard.DefaultTopTerms).
	TopTerms int
}

func (c RoutingConfig) summaryOptions() shard.SummaryOptions {
	return shard.SummaryOptions{MaxFilterBytes: c.SummaryBytes, TopTerms: c.TopTerms}
}

// routeStats is one shard's routing counter row (atomic: scatterPR plans
// concurrently with status snapshots).
type routeStats struct {
	skipped   atomic.Int64
	scattered atomic.Int64
	fallbacks atomic.Int64
	// skipSpan is the shard's "route:skip" marker span name, formatted once
	// at start: a routed shard-local ask skips K-1 shards.
	skipSpan string
}

// newRouteStats returns the per-shard counter rows of a K-shard node.
func newRouteStats(k int) []routeStats {
	rs := make([]routeStats, k)
	for s := range rs {
		rs[s].skipSpan = fmt.Sprintf("route:skip shard=%d", s)
	}
	return rs
}

// storedSummary is one gossiped summary in the store, stamped with the
// shard-map epoch current when it was stored or last revalidated.
type storedSummary struct {
	sum   *shard.Summary
	from  string // peer address the summary was pulled from
	epoch int64  // map epoch at store/revalidation time
}

// summaryStore holds the gossiped summaries of shards this node does not hold
// itself, plus the per-peer pull guard keeping heartbeat processing from
// stacking duplicate pulls.
type summaryStore struct {
	mu      sync.Mutex
	byShard map[int]*storedSummary
	pulling map[string]bool
}

func newSummaryStore() *summaryStore {
	return &summaryStore{
		byShard: make(map[int]*storedSummary),
		pulling: make(map[string]bool),
	}
}

// lookup returns the stored summary for shard s iff its epoch stamp matches
// the current map epoch.
func (st *summaryStore) lookup(s int, epoch int64) (*shard.Summary, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.byShard[s]
	if !ok || e.epoch != epoch {
		return nil, false
	}
	return e.sum, true
}

// versionOf returns the stored version for shard s (0 = none), ignoring
// staleness — version comparison decides whether to pull, epoch decides
// whether to route.
func (st *summaryStore) versionOf(s int) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.byShard[s]; ok {
		return e.sum.Version
	}
	return 0
}

// put stores one pulled summary stamped with the given epoch.
func (st *summaryStore) put(sum *shard.Summary, from string, epoch int64) {
	st.mu.Lock()
	st.byShard[sum.Shard] = &storedSummary{sum: sum, from: from, epoch: epoch}
	st.mu.Unlock()
}

// revalidate re-stamps every stored summary whose holder appears in the
// current map to the current epoch, and drops summaries whose holder left the
// map. Called only after a successful full gather, so the deterministic
// "one fallback scatter per epoch bump" contract holds (heartbeat processing
// never re-stamps).
func (st *summaryStore) revalidate(m shard.Map) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for s, e := range st.byShard {
		held := false
		for _, addr := range m.Replicas[s] {
			if addr == e.from {
				held = true
				break
			}
		}
		if held {
			e.epoch = m.Epoch
		} else {
			delete(st.byShard, s)
		}
	}
}

// snapshot returns the stored entry for shard s (nil when absent) — status
// rendering only.
func (st *summaryStore) snapshot(s int) *storedSummary {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.byShard[s]
}

// tryBeginPull marks a pull to addr in flight; false when one already is.
func (st *summaryStore) tryBeginPull(addr string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.pulling[addr] {
		return false
	}
	st.pulling[addr] = true
	return true
}

func (st *summaryStore) endPull(addr string) {
	st.mu.Lock()
	delete(st.pulling, addr)
	st.mu.Unlock()
}

// routingEnabled reports whether this node builds, gossips and consults term
// summaries.
func (n *Node) routingEnabled() bool { return n.sumStore != nil }

// internInt64s is internShards for the heartbeat's summary-version vector:
// the decoded slice is the mux read loop's scratch buffer, so a stable copy
// must be stored — reusing the previously stored slice when the contents
// repeat keeps the steady state allocation-free.
func internInt64s(prev, cur []int64) []int64 {
	if len(cur) == 0 {
		return nil
	}
	if len(prev) == len(cur) {
		same := true
		for i := range cur {
			if prev[i] != cur[i] {
				same = false
				break
			}
		}
		if same {
			return prev
		}
	}
	return append([]int64(nil), cur...)
}

// observeSummaryVersions is the heartbeat hook: compare the peer's advertised
// summary versions against the store and pull what is missing or changed.
// The comparison is allocation-free in the steady state (every version
// matches); the pull itself runs in its own goroutine, guarded per peer, so
// the inline heartbeat dispatch on the mux read loop never blocks on a peer.
func (n *Node) observeSummaryVersions(from string, shards []int, vers []int64) {
	if !n.routingEnabled() || len(vers) != len(shards) {
		return
	}
	wanted := 0
	for i, s := range shards {
		if vers[i] == 0 || n.localSums[s] != nil {
			continue
		}
		if n.sumStore.versionOf(s) != vers[i] {
			wanted++
		}
	}
	if wanted == 0 {
		return
	}
	want := make([]int, 0, wanted)
	for i, s := range shards {
		if vers[i] == 0 || n.localSums[s] != nil {
			continue
		}
		if n.sumStore.versionOf(s) != vers[i] {
			want = append(want, s)
		}
	}
	if !n.sumStore.tryBeginPull(from) {
		return
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer n.sumStore.endPull(from)
		n.pullSummaries(from, want)
	}()
}

// pullSummaries fetches the term summaries of the given shards from addr and
// stores them stamped with the epoch current at completion. A failed pull is
// simply dropped: the next heartbeat re-advertises the versions and the pull
// is retried — routing meanwhile falls back to scatter for those shards.
func (n *Node) pullSummaries(addr string, shards []int) {
	n.nm.sumPullsSent.Inc()
	deadline := time.Now().Add(n.cfg.RequestTimeout)
	resp, err := n.callPeer(addr, &Request{Kind: kindShardSummary, Subs: shards}, deadline, 1)
	if err != nil {
		n.nm.sumPullFailures.Inc()
		return
	}
	epoch := n.currentEpoch()
	for i := range resp.Summaries {
		sum := resp.Summaries[i]
		if sum.Version == 0 || sum.Shard < 0 || sum.Shard >= n.shardK {
			continue
		}
		n.sumStore.put(&sum, addr, epoch)
	}
}

// handleShardSummary serves a summary pull: the term summaries of every
// requested shard this node holds.
func (n *Node) handleShardSummary(req *Request) *Response {
	n.nm.sumPullsServed.Inc()
	resp := &Response{Epoch: n.currentEpoch(), ServedBy: n.Addr()}
	if !n.routingEnabled() {
		return resp
	}
	for _, s := range req.Subs {
		if sum := n.localSums[s]; sum != nil {
			resp.Summaries = append(resp.Summaries, *sum)
		}
	}
	return resp
}

// planRoute plans the scatter for one question's keywords against the current
// shard map. ok=false means routing is off (unsharded, disabled) and the
// caller must scatter to every shard. Marker spans narrate each decision into
// the question's trace, so `qactl -slow` explains wide scatters; counters
// feed the status table and qatop's cluster skip rate.
func (n *Node) planRoute(keywords []string, m shard.Map, parent obs.SpanContext) (shard.RoutePlan, bool) {
	if !n.routingEnabled() {
		return shard.RoutePlan{}, false
	}
	plan := shard.PlanRoute(n.shardK, keywords, func(s int) (*shard.Summary, bool) {
		if sum := n.localSums[s]; sum != nil {
			// Local summaries describe this node's own immutable index —
			// always fresh, whatever the epoch.
			return sum, true
		}
		return n.sumStore.lookup(s, m.Epoch)
	})
	for _, d := range plan.Decisions {
		switch d.Action {
		case shard.RouteSkip:
			n.nm.routeSkips.Inc()
			n.routeStats[d.Shard].skipped.Add(1)
			n.spans.StartSpan(n.routeStats[d.Shard].skipSpan, "", parent).End()
		case shard.RouteScatter:
			n.nm.routeScatters.Inc()
			n.routeStats[d.Shard].scattered.Add(1)
		case shard.RouteFallback:
			// Distinguish "never pulled" from "stored but stale after an epoch
			// bump" — the staleroute chaos scenario asserts on the latter.
			if n.sumStore.snapshot(d.Shard) != nil {
				n.nm.routeFallbackStale.Inc()
				n.spans.StartSpan(fmt.Sprintf("route:fallback shard=%d reason=stale", d.Shard), "", parent).End()
			} else {
				n.nm.routeFallbackMissing.Inc()
				n.spans.StartSpan(fmt.Sprintf("route:fallback shard=%d reason=missing", d.Shard), "", parent).End()
			}
			n.routeStats[d.Shard].fallbacks.Add(1)
		}
	}
	if plan.Selective() {
		n.nm.routePlansSelective.Inc()
	} else {
		n.nm.routePlansFallback.Inc()
	}
	if plan.ShortCircuit() {
		n.nm.routeShortCircuits.Inc()
		n.spans.StartSpan("route:shortcircuit", "", parent).End()
	}
	return plan, true
}
